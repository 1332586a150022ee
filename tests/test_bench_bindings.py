"""The traced benchmark wraps library functions by name: a rename or a
deletion must fail here, not only in a traced benchmark run."""

import sys
from pathlib import Path

from vckit.field import DEFAULT_MODULUS, Field

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import tracing  # noqa: E402


def test_tracer_binds_every_wrapped_name():
    """Tracer() resolves every wrapped name, raising if one is missing, and
    finds at least one binding for each."""
    tracer = tracing.Tracer(Field(DEFAULT_MODULUS))
    assert len(tracer._patches) >= len(tracing.SPANS) + len(tracing.COUNTS)
