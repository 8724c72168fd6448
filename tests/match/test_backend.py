"""Tests for the pluggable ``MatchBackend`` surface and its factory."""

import pytest

from repro.match import (
    DEFAULT_MATCH_BACKEND,
    MATCH_BACKENDS,
    MatchBackend,
    MatchEngine,
    SortedMatchEngine,
    make_backend,
)
from repro.match.engine import ExportHistory
from repro.match.policies import MatchPolicy, PolicyKind

POLICY = MatchPolicy(PolicyKind.REGL, 1.0)


class TestMakeBackend:
    def test_default_is_legacy(self):
        # The id predates the flip: the default is the sorted engine,
        # and the reference engine is served by name only.
        assert DEFAULT_MATCH_BACKEND == "sorted"
        assert type(make_backend(POLICY)) is SortedMatchEngine
        eng = make_backend(POLICY, "legacy")
        assert type(eng) is MatchEngine
        assert eng.backend_name == "legacy"

    def test_one_default_everywhere(self):
        import repro
        from repro.analysis.model import ModelConfig
        from repro.bench.figure4 import Figure4Spec

        assert (
            repro.RunOptions().match_backend
            == ModelConfig().match_backend
            == Figure4Spec().match_backend
            == DEFAULT_MATCH_BACKEND
        )
        assert DEFAULT_MATCH_BACKEND in MATCH_BACKENDS
        assert make_backend(POLICY).backend_name == DEFAULT_MATCH_BACKEND

    def test_sorted(self):
        eng = make_backend(POLICY, "sorted")
        assert type(eng) is SortedMatchEngine
        assert eng.backend_name == "sorted"

    def test_registry_covers_factory(self):
        for name in MATCH_BACKENDS:
            assert make_backend(POLICY, name).backend_name == name

    def test_unknown_backend_raises_value_error(self):
        # ConfigError is the api layer's job (RunOptions.__post_init__,
        # tested in tests/api/test_facade.py); the match layer sits
        # below repro.core and raises plain ValueError.
        with pytest.raises(ValueError, match="unknown match backend"):
            make_backend(POLICY, "quantum")

    def test_kwargs_forwarded(self):
        hist = ExportHistory()
        for name in MATCH_BACKENDS:
            eng = make_backend(POLICY, name, history=hist, strict_order=False)
            assert eng.history is hist
            assert eng.strict_order is False
            assert eng.policy is POLICY


class TestProtocol:
    @pytest.mark.parametrize("name", MATCH_BACKENDS)
    def test_backends_satisfy_protocol(self, name):
        assert isinstance(make_backend(POLICY, name), MatchBackend)

    def test_arbitrary_object_is_not_a_backend(self):
        assert not isinstance(object(), MatchBackend)


class TestDeprecationShim:
    def test_direct_construction_still_works(self):
        # Old call sites keep working; only the runtimes are required to
        # go through make_backend().
        eng = MatchEngine(POLICY, strict_order=False)
        eng.record_export(1.0)
        assert eng.evaluate(1.0).kind.name == "MATCH"

    def test_runtimes_use_factory_only(self):
        # Guard the API contract: no runtime module constructs an engine
        # class directly.
        import inspect

        import repro.core.exporter as exporter
        import repro.core.coupler as coupler
        import repro.core.live as live

        for mod in (exporter, coupler, live):
            src = inspect.getsource(mod)
            assert "MatchEngine(" not in src, mod.__name__
            assert "SortedMatchEngine(" not in src, mod.__name__
