"""Every function the benchmark's tracer wraps still exists.

The tracer (``perfbench/tracer.py``) lists the package functions it times
by module and name. A refactor that drops or renames one of them fails
here, in the fast suite, and not only in the slow benchmark tests. So
does renaming a parameter that the tracer's counters and span namers read
from a call's bound arguments, which would otherwise raise ``KeyError``
only in a traced run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from dphgnn import model, sparse

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    # Loaded from its file under its own name: perfbench is no package, and
    # its modules' names (run, workloads) are too generic for sys.path.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_function_it_wraps():
    originals = model.taa_forward, sparse.SparseMatrix.matmul_dense
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert model.taa_forward is not originals[0]
    finally:
        tracer.uninstall()
    assert (model.taa_forward, sparse.SparseMatrix.matmul_dense) == originals


# The parameter each counter or span namer reads from a call, by span label.
BOUND_ARGUMENTS = {
    "attention.cross_attention": "neighborhoods",
    "sparse.matmul_dense": "self",
    "precompute.save_structure": "path",
    "precompute.load_structure": "path",
    "nn.save_checkpoint": "path",
    "nn.load_checkpoint": "path",
    "model.dphgnn_forward": "mode",
}


@pytest.mark.parametrize("label", sorted(BOUND_ARGUMENTS))
def test_the_tracer_binds_parameters_the_function_has(label):
    functions = {name: (module, attr) for name, module, attr in load_tracer().FUNCTIONS}
    module_name, attr = functions[label]
    target = importlib.import_module(f"dphgnn.{module_name}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert BOUND_ARGUMENTS[label] in inspect.signature(target).parameters
