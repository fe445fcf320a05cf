"""Invocation contexts: the environment handed to running Java code.

In real Java, a class reaches its environment through static state —
``System.out``, ``System.getProperties()`` — resolved through the class's
own loader.  Our class material is made of plain Python functions, so the
invoker passes an explicit :class:`InvocationContext` instead: it resolves
``System`` *through the running class's loader*, which is exactly the
mechanism that makes Section 5.5's per-application System copies work.
"""

from __future__ import annotations

from typing import Optional

from repro.jvm.classloading import ClassLoader, JClass
from repro.jvm.errors import IllegalStateException
from repro.lang import system as system_mod
from repro.lang.system import SystemFacade


class InvocationContext:
    """Execution environment for one running class.

    Attributes
    ----------
    vm:      the :class:`~repro.jvm.vm.VirtualMachine`.
    loader:  the class loader whose name space the code runs in.
    jclass:  the class being executed (may be None for host-driven calls).
    app:     the owning :class:`~repro.core.application.Application`, or
             None when running in plain single-application mode.
    """

    def __init__(self, vm, loader: ClassLoader,
                 jclass: Optional[JClass] = None, app=None):
        self.vm = vm
        self.loader = loader
        self.jclass = jclass
        self.app = app
        self._system: Optional[SystemFacade] = None

    @property
    def system(self) -> SystemFacade:
        """``System`` as seen through this context's loader (Section 5.5)."""
        if self._system is None:
            jclass = self.loader.load_class(system_mod.CLASS_NAME)
            self._system = SystemFacade(jclass, app=self.app)
        return self._system

    # -- stream shortcuts ------------------------------------------------------

    @property
    def stdin(self):
        return self.system.stdin

    @property
    def stdout(self):
        return self.system.out

    @property
    def stderr(self):
        return self.system.err

    # -- environment -----------------------------------------------------------

    @property
    def cwd(self) -> str:
        """Current working directory (application state, Section 5.1)."""
        if self.app is not None:
            return self.app.cwd
        return self.vm.os_context.cwd

    @property
    def user(self):
        """The Java-level running user, or None outside the multi-proc VM."""
        if self.app is not None:
            return self.app.user
        return None

    def load_class(self, name: str) -> JClass:
        return self.loader.load_class(name)

    def for_class(self, jclass: JClass) -> "InvocationContext":
        """Derive a context for invoking another class in the same app."""
        context = InvocationContext(self.vm, jclass.loader, jclass, self.app)
        return context

    # -- multi-processing conveniences ---------------------------------------------

    def launch(self, spec):
        """Launch an :class:`~repro.core.execspec.ExecSpec` from in-app
        code (Section 5.1's ``Application.exec``), placement included."""
        if self.app is None:
            raise IllegalStateException(
                "launch requires the multi-processing VM (no current app)")
        from repro.core.execspec import launch as launch_spec
        return launch_spec(spec, vm=self.vm, ctx=self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        app = self.app.name if self.app is not None else None
        cls = self.jclass.name if self.jclass is not None else None
        return f"InvocationContext(class={cls!r}, app={app!r})"
