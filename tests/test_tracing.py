"""The benchmark tracer's names still match the package.

perfbench/tracing.py rebinds each traced function by name and reads `.N`
off the result of every matrix-building span, so a renamed function or a
changed result type makes every traced benchmark sweep fail.
"""

import importlib

import pdwell


def test_traced_functions_resolve(perfbench_module):
    for home, attr in perfbench_module("tracing").TRACED:
        assert callable(getattr(importlib.import_module(f"pdwell.{home}"), attr))


def test_matrix_spans_return_operator_matrices(perfbench_module, model_a, seal_a):
    tracing = perfbench_module("tracing")
    g = pdwell.make_grid(8.0, 64, 0.5)
    args = {
        "assemble_L": (model_a, g),
        "assemble_onewell": (pdwell.assemble_L(model_a, g), seal_a),
        "schrodinger_matrix": (model_a.potential, g, 2.0),
    }
    where = {span: key for key, span in tracing.TRACED.items()}
    for span in tracing.MATRIX_SPANS:
        home, attr = where[span]
        result = getattr(importlib.import_module(f"pdwell.{home}"), attr)(*args[attr])
        assert result.N == g.n_points
