"""Class material, class loaders, and loader-based name spaces.

Section 5.5 rests on one JVM property: *class identity is the pair (defining
loader, class name)*.  "Since we use a new class loader for every
application, to the JVM, the different incarnations of the System class are
just different classes that happen to have the same name."

We reproduce that property without bytecode:

* :class:`ClassMaterial` is the "class file" — a named bundle of member
  functions, a static initializer, and a code source.  Material lives in a
  :class:`ClassRegistry` (the class path / network, depending on the code
  source).
* :class:`ClassLoader` turns material into :class:`JClass` objects
  ("linking", Section 3.1).  Each definition gets *its own* static-state
  dict and a :class:`~repro.security.codesource.ProtectionDomain` derived
  from the material's code source and the installed policy.
* Loaders delegate parent-first; two loaders defining the same material
  yield two distinct, incompatible classes — which is exactly what gives
  every application its own ``System`` in Section 5.5.

Method invocation goes through :class:`JMethod`, which pushes the class's
protection domain onto the calling thread's access-control stack — the
Python analogue of the domain-annotated JVM stack frames that JDK 1.2's
``AccessController`` inspects.
"""

from __future__ import annotations

import inspect
import threading
import weakref
from typing import Callable, Iterable, Optional

from repro.jvm.errors import (
    ClassNotFoundException,
    IllegalArgumentException,
    IllegalStateException,
    NoSuchMethodException,
)
from repro.security import access
from repro.security.codesource import (
    CodeSource,
    ProtectionDomain,
    system_domain,
)


class ClassMaterial:
    """The loader-independent definition of a class (its "class file").

    ``members`` maps member names to plain Python callables.  Every member
    receives its defining :class:`JClass` as first argument (so members can
    reach their own per-definition statics — essential for Section 5.5).
    By convention an application entry point is a member
    ``main(jclass, ctx, args)`` where ``ctx`` is the
    :class:`~repro.lang.context.InvocationContext` supplied by the invoker
    and ``args`` is a list of strings.

    ``static_init`` runs once per *definition* (i.e. once per loader that
    defines the class), with the new class's protection domain on the
    stack — just like a Java static initializer.
    """

    def __init__(self, name: str,
                 code_source: Optional[CodeSource] = None,
                 members: Optional[dict[str, Callable]] = None,
                 static_init: Optional[Callable[["JClass"], None]] = None,
                 doc: str = ""):
        if not name:
            raise IllegalArgumentException("class name may not be empty")
        self.name = name
        self.code_source = code_source
        self.members: dict[str, Callable] = dict(members or {})
        self.static_init = static_init
        self.doc = doc
        #: Member names that are *not* public; reflective access to them is
        #: guarded by the system security manager (Section 5.6).  By
        #: convention, members whose name starts with "_" are non-public.
        self.non_public: set[str] = {
            member for member in self.members if member.startswith("_")}

    def member(self, fn: Callable) -> Callable:
        """Decorator registering ``fn`` as a member of this class."""
        self.members[fn.__name__] = fn
        if fn.__name__.startswith("_"):
            self.non_public.add(fn.__name__)
        return fn

    def size(self) -> int:
        """Approximate "bytecode size" of this material, in bytes.

        Sums the compiled code objects of the members — the closest
        analogue of a class file's method bytecode — so telemetry can
        report bytes (re)defined per application (Section 5.5 reloads).
        """
        total = len(self.doc.encode("utf-8")) if self.doc else 0
        for fn in self.members.values():
            code = getattr(fn, "__code__", None)
            total += len(code.co_code) if code is not None else 64
        return total

    def static(self, fn: Callable) -> Callable:
        """Decorator registering ``fn`` as the static initializer."""
        self.static_init = fn
        return fn

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ClassMaterial({self.name!r}, cs={self.code_source!r})"


class ClassRegistry:
    """All class material known to the VM (class path + installed code).

    The registry is the single source of material; *which* material a given
    application sees, and with what identity and privileges, is decided by
    the class loaders.
    """

    def __init__(self):
        self._materials: dict[str, ClassMaterial] = {}
        self._lock = threading.Lock()

    def register(self, material: ClassMaterial,
                 replace: bool = False) -> ClassMaterial:
        with self._lock:
            if material.name in self._materials and not replace:
                raise IllegalArgumentException(
                    f"class material {material.name!r} already registered")
            self._materials[material.name] = material
            return material

    def register_all(self, materials: Iterable[ClassMaterial]) -> None:
        for material in materials:
            self.register(material)

    def get(self, name: str) -> ClassMaterial:
        with self._lock:
            material = self._materials.get(name)
        if material is None:
            raise ClassNotFoundException(name)
        return material

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._materials

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._materials)


class JClass:
    """A defined class: material + defining loader + its own static state.

    Identity is object identity: two definitions of the same material by
    different loaders are different classes (the heart of Section 5.5).
    """

    def __init__(self, material: ClassMaterial, loader: "ClassLoader",
                 domain: ProtectionDomain):
        self.material = material
        self.loader = loader
        self.protection_domain = domain
        #: Per-definition static fields (e.g. ``System``'s in/out/err).
        self.statics: dict[str, object] = {}
        self._initialized = False
        self._init_lock = threading.RLock()

    @property
    def name(self) -> str:
        return self.material.name

    def initialize(self) -> None:
        """Run the static initializer under this class's domain.

        Init-once and thread-safe: a second thread blocks until the first
        finishes (so it never sees a half-initialized class), while the
        defining thread may re-enter during its own static init (the JVM's
        recursive-initialization rule) thanks to the RLock plus the
        flag being set before the initializer runs.
        """
        if self._initialized:
            return
        with self._init_lock:
            if self._initialized:
                return
            self._initialized = True
            if self.material.static_init is not None:
                with access.stack_frame(self.protection_domain):
                    self.material.static_init(self)

    def has_method(self, name: str) -> bool:
        return name in self.material.members

    def method(self, name: str) -> "JMethod":
        fn = self.material.members.get(name)
        if fn is None:
            raise NoSuchMethodException(f"{self.name}.{name}")
        return JMethod(self, name, fn)

    def invoke(self, method_name: str, *args, **kwargs):
        return self.method(method_name).invoke(*args, **kwargs)

    def is_public_member(self, name: str) -> bool:
        return name not in self.material.non_public

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JClass({self.name!r}, loader={self.loader.name!r})"


class JObject:
    """An instance of a registered class: the class plus a field dict.

    Instance methods are ordinary members invoked with the object as the
    argument after the class: ``member(jclass, self, *args)``.  Object
    identity is tied to the *defining class* (and therefore to its loader),
    which is what makes cross-name-space sharing detectable
    (Section 8's type-safety concern; see :mod:`repro.core.sharing`).
    """

    __slots__ = ("jclass", "fields")

    def __init__(self, jclass: "JClass", **fields):
        self.jclass = jclass
        self.fields: dict[str, object] = dict(fields)

    def invoke(self, method_name: str, *args, **kwargs):
        return self.jclass.method(method_name).invoke(self, *args, **kwargs)

    def is_instance_of(self, jclass: "JClass") -> bool:
        """Class identity check: same definition, not just same name."""
        return self.jclass is jclass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"JObject({self.jclass.name}@"
                f"{self.jclass.loader.name}, {self.fields!r})")


class JMethod:
    """A method handle; invocation pushes the class's protection domain.

    A generator-function member (a *continuation method*, runnable as a
    scheduler task) cannot be guarded by one ``with`` around the call —
    the frame would pop before any body code runs, and holding it across
    a yield would leak it onto whatever thread resumes the generator.
    ``invoke`` therefore returns a :func:`_domain_guarded` wrapper that
    re-pushes the domain around *each resumption*, so the access-control
    stack inside every step is exactly what a plain call would see
    (Section 5.6 continuity under the event-loop scheduler).
    """

    __slots__ = ("jclass", "name", "_fn")

    def __init__(self, jclass: JClass, name: str, fn: Callable):
        self.jclass = jclass
        self.name = name
        self._fn = fn

    @property
    def is_continuation(self) -> bool:
        """True when this member is a generator function (task-capable)."""
        return inspect.isgeneratorfunction(self._fn)

    def invoke(self, *args, **kwargs):
        if inspect.isgeneratorfunction(self._fn):
            return _domain_guarded(
                self._fn(self.jclass, *args, **kwargs),
                self.jclass.protection_domain)
        with access.stack_frame(self.jclass.protection_domain):
            return self._fn(self.jclass, *args, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"JMethod({self.jclass.name}.{self.name})"


def _domain_guarded(gen, domain):
    """Delegate to ``gen`` with ``domain`` pushed per resumption.

    The full generator protocol is forwarded — sends, throws (this is
    where interrupt/stop delivery enters application code), and the
    return value — but the protection-domain frame exists only *while
    the inner generator is executing*: it is pushed before each
    ``send``/``throw`` and popped before each yield travels outward, so
    the stack a scheduler loop thread carries between task steps is
    empty and per-step security checks see the right domains.
    """
    send_value = None
    throw_exc = None
    while True:
        with access.stack_frame(domain):
            try:
                if throw_exc is not None:
                    pending, throw_exc = throw_exc, None
                    out = gen.throw(pending)
                else:
                    out = gen.send(send_value)
            except StopIteration as stop:
                return stop.value
        try:
            send_value = yield out
        except BaseException as exc:  # noqa: BLE001 - forwarded inward
            throw_exc = exc
            send_value = None


_system_domain_lock = threading.Lock()
_system_domain: Optional[ProtectionDomain] = None


def _shared_system_domain() -> ProtectionDomain:
    """The one fully trusted domain all boot-class-path classes share.

    System classes dominate deep stacks; giving them a single domain
    object lets the walk's identity dedupe collapse them to one check.
    The domain is stateless (static ``AllPermission``, no policy), so
    sharing it across VMs is safe.
    """
    global _system_domain
    if _system_domain is None:
        with _system_domain_lock:
            if _system_domain is None:
                _system_domain = system_domain()
    return _system_domain


class ClassLoader:
    """Parent-first delegating class loader.

    ``load_class`` first asks the parent; only if the parent cannot find
    the class does this loader define it from registry material
    (``find_class``).  Subclasses (the application loader of Section 5.5,
    the ``AppletClassLoader`` of Section 6.3) override :meth:`load_class`
    or :meth:`find_class` to change visibility or attach extra permissions.
    """

    def __init__(self, registry: ClassRegistry,
                 parent: Optional["ClassLoader"] = None,
                 name: str = "classloader",
                 policy: Optional[object] = None):
        self.registry = registry
        self.parent = parent
        self.name = name
        self.policy = policy if policy is not None or parent is None \
            else parent.policy
        #: The VM this loader belongs to; static initializers reach the VM
        #: through their class's defining loader (set by the VM for the boot
        #: loader and inherited by child loaders).
        self.vm = parent.vm if parent is not None else None
        self._defined: dict[str, JClass] = {}
        self._released = False
        self._lock = threading.RLock()

    def load_class(self, name: str) -> JClass:
        with self._lock:
            already = self._defined.get(name)
            if already is not None:
                return already
        if self.parent is not None:
            try:
                return self.parent.load_class(name)
            except ClassNotFoundException:
                pass
        return self.find_class(name)

    def find_class(self, name: str) -> JClass:
        material = self.registry.get(name)
        return self.define_class(material)

    def define_class(self, material: ClassMaterial) -> JClass:
        """Define (link) material in this loader's name space."""
        with self._lock:
            existing = self._defined.get(material.name)
            if existing is not None:
                return existing
            if self._released:
                raise IllegalStateException(
                    f"class loader {self.name} was released")
            domain = self.domain_for(material)
            jclass = JClass(material, self, domain)
            self._defined[material.name] = jclass
        vm = self.vm
        if vm is not None:
            metrics = vm.telemetry.metrics
            metrics.counter("classload.defined").inc()
            metrics.counter("classload.bytes").inc(material.size())
        jclass.initialize()
        return jclass

    def release(self) -> None:
        """Hold the defined classes weakly from now on, and define no more.

        A loader keeps its classes and each class its defining loader
        (``JClass.loader``): a cycle only the collector frees.  The reaper
        releases a reaped application's loader, so the application frees
        both by reference counting.  A class still keeps its loader alive
        (an object of it may be shared past its application), and a
        released loader still returns a class it defined while something
        holds that class; it never defines a second one under its name.
        """
        with self._lock:
            self._defined = weakref.WeakValueDictionary(self._defined)
            self._released = True

    def domain_for(self, material: ClassMaterial) -> ProtectionDomain:
        """Protection domain for a class this loader defines.

        Material without a code source is boot-class-path code and gets the
        fully trusted system domain; everything else gets a policy-backed
        domain for its code source (Section 3.3, JDK 1.2 model).  Plain
        policy-backed domains are *interned* per ``(code_source, policy)``
        — identical code sources share one domain (and one decision memo)
        across loaders, and the access-control walk can dedupe them by
        identity.  Loaders that attach static permissions (the
        ``AppletClassLoader``) override this method and keep building
        their own unshared domains.
        """
        if material.code_source is None:
            return _shared_system_domain()
        policy = self.policy
        interner = getattr(policy, "domain_for_code_source", None)
        if interner is not None:
            return interner(material.code_source,
                            name=material.code_source.url or material.name)
        return ProtectionDomain(material.code_source, policy=policy,
                                name=material.code_source.url or material.name)

    def defined_classes(self) -> list[JClass]:
        with self._lock:
            return list(self._defined.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"
