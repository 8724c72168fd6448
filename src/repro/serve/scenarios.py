"""``build_scenario(spec)``: :meth:`SessionSpec.build` by its older name."""

from repro.serve.spec import SessionSpec

__all__ = ["build_scenario"]

build_scenario = SessionSpec.build
