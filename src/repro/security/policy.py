"""Security policy: grants to code sources *and* to users.

Section 3.3 describes the JDK 1.2 direction: "depending on who signed the
code and where the code came from, the user can specify which operations
should be allowed".  Section 5.3 extends the policy language so that

    "(1) the security policy can grant permissions to a particular user and
    (2) the policy can also grant certain code sources the privilege to
    exercise the permissions of the running user."

The policy file grammar (a faithful superset of the JDK 1.2 one)::

    grant [codeBase "URL"] [, signedBy "alice,bob"] [, user "alice"] {
        permission PermissionType ["target" [, "actions"]];
        ...
    };

``codeBase`` URLs support the ``/*`` (directory) and ``/-`` (subtree)
wildcards; a ``grant user "alice"`` block with no ``codeBase`` grants
permissions to the *user* alice, consulted by the access controller when a
domain holding :class:`~repro.security.permissions.UserPermission` runs on
behalf of alice (Section 5.3).

A grant may additionally carry a ``phase`` condition (the execution-state
MAC, in the spirit of TOMOYO's per-phase profiles)::

    grant codeBase "file:/usr/local/java/apps/editor/*", phase "init" {
        permission FilePermission "/etc/editor.conf", "read";
    };

Phase-conditioned grants only apply while the calling application is in
that lifecycle phase (:data:`PHASES`: ``init`` → ``steady`` →
``shutdown``).  Host threads have no phase, so phase grants fail closed
for them.  Phase enforcement folds into the cached ``check_permission``
walk — per-phase decision memos coexist inside each protection domain, so
a phase transition never bumps the global epoch.

The paper's own example policy (Section 5.3) is provided verbatim by
:func:`paper_example_policy` and exercised by the S1 experiment tests.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.jvm.errors import IllegalArgumentException
from repro.security import cache
from repro.security.codesource import CodeSource, ProtectionDomain
from repro.security.permissions import (
    AllPermission,
    Permission,
    Permissions,
    make_permission,
)


#: Application lifecycle phases, in their only legal order.  The kernel
#: advances apps forward through these (construction → first AWT dispatch
#: → exit); apps may advance themselves to drop privileges early.
PHASE_INIT = "init"
PHASE_STEADY = "steady"
PHASE_SHUTDOWN = "shutdown"
PHASES = (PHASE_INIT, PHASE_STEADY, PHASE_SHUTDOWN)


@dataclass
class GrantEntry:
    """One ``grant`` block of a policy."""

    code_source: Optional[CodeSource] = None
    user: Optional[str] = None
    permissions: list[Permission] = field(default_factory=list)
    #: Optional execution-phase condition; None means "in any phase".
    phase: Optional[str] = None

    def matches_code_source(self, code_source: Optional[CodeSource],
                            phase: Optional[str] = None) -> bool:
        if self.phase is not None and self.phase != phase:
            return False  # fail closed: host threads have phase None
        if self.user is not None and self.code_source is None:
            return False  # pure user grant; never matches code
        if self.code_source is None:
            return True  # grant to all code
        return self.code_source.implies(code_source)

    def matches_user(self, user_name: str,
                     phase: Optional[str] = None) -> bool:
        if self.phase is not None and self.phase != phase:
            return False
        return self.user == user_name and self.code_source is None


class Policy:
    """The installed security policy of the VM.

    Resolution is memoized (the security fast path): the permissions for
    a code source or a user are computed once per *epoch* and then served
    from a dict.  The epoch is a monotonic counter bumped by every grant
    mutation (:meth:`add_grant`, :meth:`refresh_from`), and protection
    domains revalidate their own decision memos against it — so a policy
    change is observed by the immediately following permission check,
    never a TTL later.
    """

    def __init__(self, entries: Optional[list[GrantEntry]] = None):
        self._entries: list[GrantEntry] = list(entries or [])
        self._lock = threading.RLock()
        self._epoch = 0
        #: keyed ``(code_source, phase)`` / ``(user, phase)``; phase is
        #: normalized to None while no grant carries a phase condition, so
        #: phase-free policies keep exactly one entry per source.
        self._code_source_cache: dict[tuple, Permissions] = {}
        self._user_cache: dict[tuple, Permissions] = {}
        #: One interned policy-backed domain per code source, so identical
        #: code sources share one decision memo (hit rates compound).
        self._interned_domains: dict[Optional[CodeSource],
                                     ProtectionDomain] = {}
        self.cache_counters = cache.CacheCounters()
        self.phase_sensitive = any(
            entry.phase is not None for entry in self._entries)
        if self.phase_sensitive:
            cache.PHASE_AWARE = True

    @property
    def epoch(self) -> int:
        """Monotonic grant-set version; bumped by every mutation."""
        return self._epoch

    def bind_telemetry(self, metrics) -> None:
        """Re-home the ``security.cache.*`` counters into a VM's registry.

        Called by the launcher once the policy is installed on a VM, so
        ``/proc/vmstat`` and ``/proc/security/cache`` see the live values.
        The counter bundle mutates in place: domains that already captured
        it keep counting into the new registry.  The registry also reads
        the epoch and the intern table's size through :meth:`collect`.
        """
        self.cache_counters.rebind(metrics)
        metrics.collect(self.collect)

    def collect(self) -> dict:
        """The epoch and intern-table size, for a VM's metrics registry."""
        return {"security.cache.interned_domains":
                self.interned_domain_count(),
                "security.cache.policy_epoch": self._epoch}

    # -- programmatic construction ------------------------------------------------

    def _invalidate_locked(self) -> None:
        """Bump the epoch and drop every memo (caller holds the lock)."""
        self._epoch += 1
        self._code_source_cache.clear()
        self._user_cache.clear()
        self.phase_sensitive = any(
            entry.phase is not None for entry in self._entries)
        if self.phase_sensitive:
            # Sticky, process-wide: once any policy conditions on phase,
            # walks start resolving the caller's phase (once per walk).
            cache.PHASE_AWARE = True
        self.cache_counters.invalidation.inc()

    def add_grant(self, permissions: list[Permission],
                  code_base: Optional[str] = None,
                  signed_by: Optional[str] = None,
                  user: Optional[str] = None,
                  phase: Optional[str] = None) -> GrantEntry:
        code_source = None
        if code_base is not None or signed_by is not None:
            signers = [s.strip() for s in (signed_by or "").split(",")
                       if s.strip()]
            code_source = CodeSource(code_base, signers)
        entry = GrantEntry(code_source=code_source, user=user,
                           permissions=list(permissions), phase=phase)
        with self._lock:
            self._entries.append(entry)
            self._invalidate_locked()
        return entry

    def entries(self) -> list[GrantEntry]:
        with self._lock:
            return list(self._entries)

    # -- evaluation -----------------------------------------------------------------

    def _scan_code_source(
            self, code_source: Optional[CodeSource],
            phase: Optional[str] = None) -> Permissions:
        granted = Permissions()
        for entry in self._entries:
            if entry.matches_code_source(code_source, phase):
                for permission in entry.permissions:
                    granted.add(permission)
        return granted

    def _scan_user(self, user_name: str,
                   phase: Optional[str] = None) -> Permissions:
        granted = Permissions()
        for entry in self._entries:
            if entry.matches_user(user_name, phase):
                for permission in entry.permissions:
                    granted.add(permission)
        return granted

    def permissions_for_code_source(
            self, code_source: Optional[CodeSource],
            phase: Optional[str] = None) -> Permissions:
        if phase is not None and not self.phase_sensitive:
            phase = None  # phase-free policy: one cache entry per source
        with self._lock:
            if not cache.ENABLED:
                return self._scan_code_source(code_source, phase)
            key = (code_source, phase)
            granted = self._code_source_cache.get(key)
            if granted is None:
                self.cache_counters.policy_miss.inc()
                granted = self._scan_code_source(code_source, phase)
                granted.set_read_only()
                self._code_source_cache[key] = granted
            else:
                self.cache_counters.policy_hit.inc()
            return granted

    def permissions_for_user(self, user_name: str,
                             phase: Optional[str] = None) -> Permissions:
        """Section 5.3's user grants, consulted via UserPermission.

        Memoized per ``(user, phase, epoch)``: cache entries never survive
        a grant mutation (the epoch bump clears them under the same lock),
        so ``setUser`` plus a policy refresh are both seen immediately by
        ``_domain_satisfies`` — which now stops allocating a fresh
        ``Permissions`` on every check of the user path.
        """
        if phase is not None and not self.phase_sensitive:
            phase = None
        with self._lock:
            if not cache.ENABLED:
                return self._scan_user(user_name, phase)
            key = (user_name, phase)
            granted = self._user_cache.get(key)
            if granted is None:
                self.cache_counters.policy_miss.inc()
                granted = self._scan_user(user_name, phase)
                granted.set_read_only()
                self._user_cache[key] = granted
            else:
                self.cache_counters.policy_hit.inc()
            return granted

    def implies(self, domain: ProtectionDomain, permission: Permission,
                phase: Optional[str] = None) -> bool:
        """Dynamic policy lookup used by :class:`ProtectionDomain`."""
        return self.permissions_for_code_source(
            domain.code_source, phase).implies(permission)

    def domain_for_code_source(
            self, code_source: Optional[CodeSource],
            name: str = "") -> ProtectionDomain:
        """The interned policy-backed domain for ``code_source``.

        Class loaders route plain (no static permissions) domain creation
        through here, so every class defined from the same code source —
        across loaders and applications — shares one domain and therefore
        one decision memo.  The intern table survives epoch bumps: the
        domains revalidate themselves against :attr:`epoch`.
        """
        with self._lock:
            domain = self._interned_domains.get(code_source)
            if domain is None:
                domain = ProtectionDomain(
                    code_source, policy=self,
                    name=name or (code_source.url if code_source else ""))
                self._interned_domains[code_source] = domain
        return domain

    def interned_domain_count(self) -> int:
        with self._lock:
            return len(self._interned_domains)

    def refresh_from(self, text: str) -> None:
        """Replace all entries with the parse of ``text``."""
        entries = parse_policy(text).entries()
        with self._lock:
            self._entries = entries
            self._invalidate_locked()

    def render(self) -> str:
        """Serialize back to policy-file text (``parse_policy``-compatible).

        Round trip: ``parse_policy(policy.render())`` yields a policy with
        the same grants.
        """
        blocks: list[str] = []
        with self._lock:
            entries = list(self._entries)
        for entry in entries:
            selectors: list[str] = []
            if entry.code_source is not None:
                if entry.code_source.url is not None:
                    selectors.append(
                        f'codeBase "{entry.code_source.url}"')
                if entry.code_source.signers:
                    signers = ",".join(sorted(entry.code_source.signers))
                    selectors.append(f'signedBy "{signers}"')
            if entry.user is not None:
                selectors.append(f'user "{entry.user}"')
            if entry.phase is not None:
                selectors.append(f'phase "{entry.phase}"')
            header = "grant" + (" " + ", ".join(selectors)
                                if selectors else "")
            lines = [header + " {"]
            for permission in entry.permissions:
                clause = f"    permission {type(permission).__name__}"
                if not isinstance(permission, AllPermission):
                    clause += f' "{permission.name}"'
                    actions = permission.actions()
                    if actions:
                        clause += f', "{actions}"'
                lines.append(clause + ";")
            lines.append("};")
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + ("\n" if blocks else "")


# --------------------------------------------------------------------------
# Policy-file parser
# --------------------------------------------------------------------------

_PUNCTUATION = {"{", "}", ";", ","}


def _tokenize(text: str) -> Iterator[tuple[str, str]]:
    """Yield (kind, value) tokens; kind is 'word', 'string' or 'punct'."""
    index, length = 0, len(text)
    while index < length:
        char = text[index]
        if char in " \t\r\n":
            index += 1
            continue
        if text.startswith("//", index):
            end = text.find("\n", index)
            index = length if end < 0 else end
            continue
        if text.startswith("/*", index):
            end = text.find("*/", index)
            if end < 0:
                raise IllegalArgumentException("unterminated comment")
            index = end + 2
            continue
        if char == '"':
            end = text.find('"', index + 1)
            if end < 0:
                raise IllegalArgumentException("unterminated string")
            yield ("string", text[index + 1:end])
            index = end + 1
            continue
        if char in _PUNCTUATION:
            yield ("punct", char)
            index += 1
            continue
        start = index
        while index < length and text[index] not in " \t\r\n{};,\"":
            index += 1
        yield ("word", text[start:index])


class _TokenStream:
    def __init__(self, tokens: Iterator[tuple[str, str]]):
        self._tokens = list(tokens)
        self._pos = 0

    def peek(self) -> Optional[tuple[str, str]]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return None

    def next(self) -> tuple[str, str]:
        token = self.peek()
        if token is None:
            raise IllegalArgumentException("unexpected end of policy file")
        self._pos += 1
        return token

    def expect(self, kind: str, value: Optional[str] = None) -> str:
        got_kind, got_value = self.next()
        if got_kind != kind or (value is not None and got_value != value):
            raise IllegalArgumentException(
                f"expected {value or kind}, got {got_value!r}")
        return got_value

    def accept(self, kind: str, value: Optional[str] = None) -> bool:
        token = self.peek()
        if token is None:
            return False
        got_kind, got_value = token
        if got_kind == kind and (value is None or got_value == value):
            self._pos += 1
            return True
        return False


def parse_policy(text: str) -> Policy:
    """Parse policy-file text into a :class:`Policy`."""
    stream = _TokenStream(_tokenize(text))
    policy = Policy()
    while stream.peek() is not None:
        kind, value = stream.next()
        if kind == "word" and value == "keystore":
            stream.expect("string")
            stream.accept("punct", ";")
            continue
        if kind == "word" and value == "grant":
            _parse_grant(stream, policy)
            continue
        raise IllegalArgumentException(
            f"unexpected token {value!r} at top level")
    return policy


def _parse_grant(stream: _TokenStream, policy: Policy) -> None:
    code_base: Optional[str] = None
    signed_by: Optional[str] = None
    user: Optional[str] = None
    phase: Optional[str] = None
    while True:
        token = stream.peek()
        if token is None:
            raise IllegalArgumentException("unterminated grant clause")
        kind, value = token
        if kind == "punct" and value == "{":
            stream.next()
            break
        if kind == "punct" and value == ",":
            stream.next()
            continue
        keyword = stream.expect("word").lower()
        if keyword == "codebase":
            code_base = stream.expect("string")
        elif keyword == "signedby":
            signed_by = stream.expect("string")
        elif keyword == "user":
            user = stream.expect("string")
        elif keyword == "phase":
            phase = stream.expect("string")
        else:
            raise IllegalArgumentException(
                f"unknown grant selector {keyword!r}")
    permissions: list[Permission] = []
    while not stream.accept("punct", "}"):
        stream.expect("word", "permission")
        type_name = stream.expect("word")
        target: Optional[str] = None
        actions: Optional[str] = None
        if stream.peek() is not None and stream.peek()[0] == "string":
            target = stream.next()[1]
            if stream.accept("punct", ","):
                actions = stream.expect("string")
        stream.expect("punct", ";")
        permissions.append(make_permission(type_name, target, actions))
    stream.accept("punct", ";")
    policy.add_grant(permissions, code_base=code_base,
                     signed_by=signed_by, user=user, phase=phase)


# --------------------------------------------------------------------------
# The paper's Section 5.3 example policy
# --------------------------------------------------------------------------

PAPER_EXAMPLE_POLICY = """
// Section 5.3: "As a result, we can specify policies like the following."

// 1. All local applications can exercise their respective running users'
//    permissions.
grant codeBase "file:/usr/local/java/-" {
    permission UserPermission;
};

// 2. The backup application can read all files.
grant codeBase "file:/usr/local/java/apps/backup/*" {
    permission FilePermission "<<ALL FILES>>", "read";
};

// 3. User Alice can access all files in /home/alice.
grant user "alice" {
    permission FilePermission "/home/alice", "read,write,delete";
    permission FilePermission "/home/alice/-", "read,write,delete";
};

// 4. User Bob can access all files in /home/bob.
grant user "bob" {
    permission FilePermission "/home/bob", "read,write,delete";
    permission FilePermission "/home/bob/-", "read,write,delete";
};
"""


def paper_example_policy() -> Policy:
    """The exact four-rule example policy from Section 5.3."""
    return parse_policy(PAPER_EXAMPLE_POLICY)
