"""Java-level users and authentication (Section 5.2).

These are the users *of the multi-processing JVM* — distinct from the OS
account the JVM process runs under (:mod:`repro.unixfs.users`).  The paper:

    "In our prototype, login-in now works similar to UNIX's login program.
    It has the necessary privileges and resets its own running user-id to be
    the one that it has successfully authenticated. ...  it is not necessary
    to have the login program be executed by an all-powerful 'superuser'.
    All we need to do is grant the login program the privilege to set its
    own user."

Passwords are salted and hashed (PBKDF2); the database never stores or
returns plaintext.  A special *null user* exists "for bootstrapping
purposes" — it is the running user of the initial application before any
login has happened.

Credentials travel with every remote exec (Section 5.2), so the rexec
daemon verifies them once per request.  To keep that from costing one
PBKDF2 derivation per exec, each account remembers its last verified
password as a *verified tag*: HMAC-SHA256 under a per-process random key
over ``salt + password``.  The invariants:

* only a successful PBKDF2 check sets the tag, and ``set_password``
  clears it, so the tag only ever matches the current password;
* unknown and disabled accounts are refused before the tag is looked
  at, so ``disable`` (and a lockout) take effect on the very next call;
* a wrong password can never match the tag: it always pays PBKDF2 and
  always counts toward lockout;
* ``remove_user`` + ``add_user`` builds a fresh account with no tag.

The key never leaves the process, so a tag is worthless anywhere else.
``security.auth.derive`` and ``security.auth.cache_hit`` count the two
paths (``/proc/vmstat``).
"""

from __future__ import annotations

import hashlib
import hmac
import os
import threading
from dataclasses import dataclass, field

from repro.jvm.errors import (
    AuthenticationException,
    IllegalArgumentException,
)
from repro.telemetry import GLOBAL_HUB

_PBKDF2_ITERATIONS = 1200  # modest; this is a simulation, not production KDF
_SALT_BYTES = 16

#: Key of the verified-credential tags; fresh for every process.
_TAG_KEY = os.urandom(32)


@dataclass(frozen=True)
class JavaUser:
    """A principal known to the multi-processing JVM."""

    name: str
    home: str = ""
    full_name: str = ""

    def __str__(self) -> str:
        return self.name


#: Section 5.2: "it might even be some sort of 'null' user for bootstrapping
#: purposes" — the user the boot application runs as before login.
NULL_USER = JavaUser(name="nobody", home="/", full_name="null user")

#: The VM's own identity for system applications (the reaper, toolkit, ...).
SYSTEM_USER = JavaUser(name="system", home="/", full_name="JVM system")


@dataclass
class _Account:
    user: JavaUser
    salt: bytes
    digest: bytes
    disabled: bool = False
    failed_attempts: int = field(default=0)
    #: Tag of the last password PBKDF2 accepted; None until then.
    verified: bytes | None = None


def _derive(password: str, salt: bytes) -> bytes:
    # PBKDF2-HMAC zero-pads a short key, so "pw" and "pw\0" would derive
    # the same digest; a fixed-length SHA-256 key has no such twins.
    key = hashlib.sha256(password.encode("utf-8")).digest()
    return hashlib.pbkdf2_hmac("sha256", key, salt, _PBKDF2_ITERATIONS)


def _tag(password: str, salt: bytes) -> bytes:
    return hmac.new(_TAG_KEY, salt + password.encode("utf-8"),
                    hashlib.sha256).digest()


class UserDatabase:
    """Account store and authenticator for the multi-processing JVM."""

    def __init__(self, max_failed_attempts: int = 0):
        self._accounts: dict[str, _Account] = {}
        self._lock = threading.RLock()
        #: 0 disables lockout; otherwise accounts lock after N failures.
        self.max_failed_attempts = max_failed_attempts
        self.bind_telemetry(GLOBAL_HUB.metrics)

    def bind_telemetry(self, metrics) -> None:
        """Count PBKDF2 derivations and tag hits into ``metrics``.

        Called by the launcher when it installs the database on a VM.
        """
        self._derives = metrics.counter("security.auth.derive")
        self._cache_hits = metrics.counter("security.auth.cache_hit")

    def add_user(self, name: str, password: str, home: str = "",
                 full_name: str = "") -> JavaUser:
        if not name:
            raise IllegalArgumentException("user name may not be empty")
        with self._lock:
            if name in self._accounts:
                raise IllegalArgumentException(f"duplicate user {name!r}")
            salt = os.urandom(_SALT_BYTES)
            user = JavaUser(name=name, home=home or f"/home/{name}",
                            full_name=full_name)
            self._accounts[name] = _Account(user, salt,
                                            _derive(password, salt))
            return user

    def remove_user(self, name: str) -> None:
        with self._lock:
            self._accounts.pop(name, None)

    def set_password(self, name: str, password: str) -> None:
        with self._lock:
            account = self._require(name)
            salt = os.urandom(_SALT_BYTES)
            account.salt = salt
            account.digest = _derive(password, salt)
            account.verified = None

    def disable(self, name: str) -> None:
        with self._lock:
            self._require(name).disabled = True

    def _require(self, name: str) -> _Account:
        account = self._accounts.get(name)
        if account is None:
            raise AuthenticationException(f"no such user: {name}")
        return account

    def lookup(self, name: str) -> JavaUser:
        with self._lock:
            return self._require(name).user

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._accounts

    def user_names(self) -> list[str]:
        with self._lock:
            return sorted(self._accounts)

    def authenticate(self, name: str, password: str) -> JavaUser:
        """Verify credentials; raises AuthenticationException on failure.

        Failure messages do not reveal whether the account exists.  The
        password PBKDF2 last accepted is recognised by its verified tag
        without a derivation; any other password takes the PBKDF2 path.
        """
        with self._lock:
            account = self._accounts.get(name)
            if account is None:
                raise AuthenticationException("login incorrect")
            if account.disabled:
                raise AuthenticationException("login incorrect")
            tag = _tag(password, account.salt)
            if account.verified is not None \
                    and hmac.compare_digest(tag, account.verified):
                self._cache_hits.inc()
                account.failed_attempts = 0
                return account.user
            self._derives.inc()
            candidate = _derive(password, account.salt)
            if not hmac.compare_digest(candidate, account.digest):
                account.failed_attempts += 1
                if (self.max_failed_attempts
                        and account.failed_attempts
                        >= self.max_failed_attempts):
                    account.disabled = True
                raise AuthenticationException("login incorrect")
            account.failed_attempts = 0
            account.verified = tag
            return account.user


def standard_user_database() -> UserDatabase:
    """Accounts used throughout the examples, tests, and benchmarks."""
    database = UserDatabase()
    database.add_user("alice", "wonderland", home="/home/alice",
                      full_name="Alice")
    database.add_user("bob", "builder", home="/home/bob", full_name="Bob")
    return database
