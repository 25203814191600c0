"""Backend selection and resolution precedence tests.

Precedence: explicit argument > open ``using_backend`` scope (the CLI
``--backend``) > process default (``set_default_backend``) >
``$REPRO_BACKEND`` > ``numpy64``.
"""

from __future__ import annotations

import pytest

from repro.backend import (
    FLOAT64_POLICY,
    Backend,
    active_backend,
    backend_names,
    default_backend_name,
    get_backend,
    registered_salt_tokens,
    resolve_backend,
    set_default_backend,
    using_backend,
)


@pytest.fixture(autouse=True)
def _clean_default():
    set_default_backend(None)
    yield
    set_default_backend(None)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert backend_names() == ("numpy32", "numpy64")

    def test_instances_are_memoized(self):
        assert get_backend("numpy64") is get_backend("numpy64")

    def test_unknown_backend_message_lists_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("cuda")
        message = str(excinfo.value)
        assert "unknown execution backend 'cuda'" in message
        assert "numpy32, numpy64" in message
        assert "REPRO_BACKEND" in message


class TestPrecedence:
    def test_builtin_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "numpy64"
        assert active_backend().name == "numpy64"

    def test_env_overrides_builtin_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy32")
        assert active_backend().name == "numpy32"

    def test_process_default_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy32")
        set_default_backend("numpy64")
        assert active_backend().name == "numpy64"

    def test_using_backend_overrides_env_and_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy32")
        with using_backend("numpy64"):
            assert active_backend().name == "numpy64"
            with using_backend("numpy32"):  # nested scopes stack
                assert active_backend().name == "numpy32"
            assert active_backend().name == "numpy64"
        assert active_backend().name == "numpy32"

    def test_using_backend_none_keeps_surrounding_default(self):
        with using_backend("numpy32"):
            with using_backend(None):
                assert active_backend().name == "numpy32"

    def test_unknown_env_backend_fails_on_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "not_a_backend")
        with pytest.raises(ValueError, match="not_a_backend"):
            active_backend()

    def test_set_default_validates_eagerly(self):
        with pytest.raises(ValueError):
            set_default_backend("bogus")

    def test_set_default_inside_open_scope_survives_scope_exit(self, monkeypatch):
        """set_default_backend neither breaks nor is reverted by an open scope."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with using_backend("numpy64"):
            set_default_backend("numpy32")
            assert active_backend().name == "numpy64"  # scope still wins inside
        assert active_backend().name == "numpy32"  # process default survives

    def test_out_of_order_scope_exits_do_not_corrupt(self):
        """Scopes exited out of push order each remove only their own entry."""
        outer = using_backend("numpy64")
        inner = using_backend("numpy32")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)  # exit outer first
        assert active_backend().name == "numpy32"  # inner scope intact
        inner.__exit__(None, None, None)

    def test_using_backend_restores_after_exception(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with pytest.raises(RuntimeError):
            with using_backend("numpy32"):
                raise RuntimeError("boom")
        assert active_backend().name == "numpy64"


class TestResolve:
    def test_resolves_none_to_active(self):
        with using_backend("numpy32"):
            assert resolve_backend(None).name == "numpy32"

    def test_resolves_name(self):
        assert resolve_backend("numpy32").name == "numpy32"

    def test_passes_instances_through(self):
        instance = Backend("custom64", FLOAT64_POLICY)
        assert resolve_backend(instance) is instance

    def test_using_backend_honors_passed_instance(self):
        """An instance outside the name table scopes as itself."""
        custom = Backend("custom64", FLOAT64_POLICY)
        with using_backend(custom) as scoped:
            assert scoped is custom
            assert active_backend() is custom
            assert default_backend_name() == "custom64"


class TestPolicyTable:
    def test_salt_tokens_come_from_the_two_policies(self):
        assert registered_salt_tokens() == ("", "float32")
