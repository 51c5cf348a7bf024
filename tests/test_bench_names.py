"""The names the benchmark's span recorder looks up on modstab still resolve.

``perfbench/spans.py`` wraps modstab functions by name from outside the
package, so a rename in ``src/`` breaks the traced benchmark without
breaking any other test.  The recorder is loaded here as it is, and every
name it reads is looked up.
"""

import dataclasses
import importlib
import importlib.util
import pathlib

from modstab import FixedPointResult, FunctionHandle, Grid, LimitResult, SeriesBound

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spanned_and_counted_functions_resolve():
    spans = _load_spans()
    names = [(m, f) for m, fs in spans.SPANNED.items() for f in fs] + list(spans.COUNTED)
    missing = [f"{m}.{f}" for m, f in names
               if not callable(getattr(importlib.import_module(f"modstab.{m}"), f, None))]
    assert missing == []
    for module in spans.WRITERS:
        importlib.import_module(f"modstab.{module}")


def test_result_fields_the_hooks_read_exist():
    # instrument() patches these two methods; the result hooks read the fields.
    assert callable(Grid.points) and callable(FunctionHandle.__call__)
    fields = {cls: {f.name for f in dataclasses.fields(cls)}
              for cls in (SeriesBound, LimitResult, FixedPointResult, Grid)}
    assert "terms_used" in fields[SeriesBound]
    assert "achieved_n" in fields[LimitResult]
    assert "iterations" in fields[FixedPointResult]
    assert "count" in fields[Grid]
