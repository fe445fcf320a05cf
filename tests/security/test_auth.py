"""User accounts and authentication (Section 5.2)."""

import pytest

from repro.jvm.errors import (
    AuthenticationException,
    IllegalArgumentException,
)
from repro.security.auth import (
    NULL_USER,
    SYSTEM_USER,
    JavaUser,
    UserDatabase,
    standard_user_database,
)


@pytest.fixture
def db():
    database = UserDatabase()
    database.add_user("alice", "wonderland", full_name="Alice")
    return database


class TestAccounts:
    def test_add_and_lookup(self, db):
        user = db.lookup("alice")
        assert user.name == "alice"
        assert user.home == "/home/alice"
        assert user.full_name == "Alice"
        assert "alice" in db
        assert db.user_names() == ["alice"]

    def test_duplicate_rejected(self, db):
        with pytest.raises(IllegalArgumentException):
            db.add_user("alice", "again")

    def test_empty_name_rejected(self, db):
        with pytest.raises(IllegalArgumentException):
            db.add_user("", "pw")

    def test_remove(self, db):
        db.remove_user("alice")
        assert "alice" not in db

    def test_no_plaintext_stored(self, db):
        account = db._accounts["alice"]
        assert b"wonderland" != account.digest
        assert "wonderland" not in repr(account.__dict__)


class TestAuthentication:
    def test_success(self, db):
        user = db.authenticate("alice", "wonderland")
        assert user == db.lookup("alice")

    def test_wrong_password(self, db):
        with pytest.raises(AuthenticationException) as info:
            db.authenticate("alice", "guess")
        assert "incorrect" in str(info.value)

    def test_unknown_user_same_message(self, db):
        """Failure must not reveal whether the account exists."""
        try:
            db.authenticate("alice", "guess")
        except AuthenticationException as exc:
            wrong_pw = str(exc)
        try:
            db.authenticate("mallory", "guess")
        except AuthenticationException as exc:
            unknown = str(exc)
        assert wrong_pw == unknown

    def test_set_password(self, db):
        db.set_password("alice", "newpass")
        with pytest.raises(AuthenticationException):
            db.authenticate("alice", "wonderland")
        assert db.authenticate("alice", "newpass")

    def test_trailing_nul_is_not_the_password(self, db):
        """PBKDF2-HMAC zero-pads its key, so "pw" and "pw\\0" must not
        reach it as keys of different lengths."""
        for guess in ("wonderland\x00", "wonderland\x00\x00"):
            with pytest.raises(AuthenticationException):
                db.authenticate("alice", guess)
        assert db.authenticate("alice", "wonderland")
        db.add_user("bob", "builder\x00")
        with pytest.raises(AuthenticationException):
            db.authenticate("bob", "builder")
        assert db.authenticate("bob", "builder\x00")

    def test_disabled_account(self, db):
        db.disable("alice")
        with pytest.raises(AuthenticationException):
            db.authenticate("alice", "wonderland")

    def test_lockout_after_failures(self):
        database = UserDatabase(max_failed_attempts=3)
        database.add_user("bob", "builder")
        for _ in range(3):
            with pytest.raises(AuthenticationException):
                database.authenticate("bob", "wrong")
        # Correct password no longer works: the account is locked.
        with pytest.raises(AuthenticationException):
            database.authenticate("bob", "builder")

    def test_success_resets_failure_count(self):
        database = UserDatabase(max_failed_attempts=3)
        database.add_user("bob", "builder")
        for _ in range(2):
            with pytest.raises(AuthenticationException):
                database.authenticate("bob", "wrong")
        database.authenticate("bob", "builder")
        for _ in range(2):
            with pytest.raises(AuthenticationException):
                database.authenticate("bob", "wrong")
        assert database.authenticate("bob", "builder")


class TestWellKnownUsers:
    def test_null_user_for_bootstrapping(self):
        assert NULL_USER.name == "nobody"
        assert SYSTEM_USER.name == "system"
        assert str(NULL_USER) == "nobody"

    def test_java_user_is_value_object(self):
        assert JavaUser("x", "/h") == JavaUser("x", "/h")
        assert hash(JavaUser("x", "/h")) == hash(JavaUser("x", "/h"))

    def test_standard_database(self):
        database = standard_user_database()
        assert database.authenticate("alice", "wonderland")
        assert database.authenticate("bob", "builder")
