"""Every function the benchmark's tracer wraps still exists.

The tracer (``perfbench/tracer.py``) lists the package functions it times
by module and name. A refactor that drops or renames one of them fails
here, in the fast suite, and not only in the slow benchmark tests.
"""

import importlib.util
from pathlib import Path

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
