"""Reloading system classes per application (Section 5.5, Figure 5).

    "We provide each application with the illusion that it has the JVM all
    for itself. ...  In our implementation, every application gets its own
    copy of the System class.  We use a special class loader to re-load and
    re-define the System class, albeit from the same class material.  Since
    we use a new class loader for every application, to the JVM, the
    different incarnations of the System class are just different classes
    that happen to have the same name."

:class:`ApplicationClassLoader` is that special loader.  Names in
:data:`RELOADABLE_CLASSES` are *defined afresh* in the application's own
name space (own statics: ``in``/``out``/``err``, the application security
manager slot); everything else — including the shared ``SystemProperties``
— delegates to the parent loader as usual.

The paper notes the list of reloadable classes is open-ended ("it is
necessary to go through the entire JDK class library and find out which of
the JVM-wide state truly is JVM-wide"); the set is therefore mutable and a
per-loader extension hook exists for experiments.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.jvm.classloading import ClassLoader, JClass
from repro.lang import system as system_mod

#: Class names re-defined per application (Section 5.5).  Extendable: the
#: paper's future work asks what else belongs here.
RELOADABLE_CLASSES: set[str] = {system_mod.CLASS_NAME}


class ApplicationClassLoader(ClassLoader):
    """One per application: re-defines the reloadable set, delegates rest."""

    def __init__(self, parent: ClassLoader, app_name: str,
                 extra_reloadable: Optional[Iterable[str]] = None):
        super().__init__(parent.registry, parent=parent,
                         name=f"app:{app_name}")
        self.app_name = app_name
        #: Classes and class-material bytes this loader re-defined: the
        #: application's own slice of ``reload.classes``/``reload.bytes``.
        self.reloaded_classes = 0
        self.reloaded_bytes = 0
        self._reloadable = set(RELOADABLE_CLASSES)
        if extra_reloadable:
            self._reloadable.update(extra_reloadable)

    @property
    def reloadable(self) -> frozenset[str]:
        return frozenset(self._reloadable)

    def load_class(self, name: str) -> JClass:
        if name in self._reloadable:
            # Hold the loader lock across the lookup *and* the define: a
            # released-and-reacquired lock let two threads of one
            # application race past the ``_defined`` check and both run
            # the define path (double-counting reload metrics, and handing
            # one of them a class whose static init had not finished).
            # The RLock makes the nested define_class acquisition, and
            # any loads the static initializer performs on this same
            # loader, re-entrant.
            with self._lock:
                already = self._defined.get(name)
                if already is not None:
                    return already
                # Re-define from the same class material, bypassing
                # delegation: the new JClass has its own statics and its
                # own identity.
                material = self.registry.get(name)
                jclass = self.define_class(material)
                size = material.size()
                self.reloaded_classes += 1
                self.reloaded_bytes += size
            vm = self.vm
            if vm is not None:
                metrics = vm.telemetry.metrics
                metrics.counter("reload.classes").inc()
                metrics.counter("reload.bytes").inc(size)
            return jclass
        return super().load_class(name)
