"""The exception hierarchy: diagnostics as keywords, and errors that pickle."""

import pickle
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

import numpy as np
import pytest

from clinewave import errors, pde
from clinewave.errors import ClinewaveError, FieldInvariantError
from clinewave.genetics import FitnessParams

ERROR_CLASSES = [obj for obj in vars(errors).values()
                 if isinstance(obj, type) and issubclass(obj, ClinewaveError)]


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_pickles_with_class_message_and_diagnostics(cls):
    # a process pool sends a worker's exception back pickled; an error that
    # cannot be rebuilt from its pickle breaks the pool instead
    exc = cls("boom at t=40.0", t=40.0, crossings=3, escape_state=(0.7, -3.2),
              snapshot={"p": np.array([0.5, np.nan]), "D": np.array([0.0, 0.3])})
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == "boom at t=40.0"
    assert back.diagnostics.keys() == exc.diagnostics.keys()
    assert (back.diagnostics["t"], back.diagnostics["crossings"]) == (40.0, 3)
    assert back.diagnostics["escape_state"] == (0.7, -3.2)
    for tag, values in exc.diagnostics["snapshot"].items():
        np.testing.assert_array_equal(back.diagnostics["snapshot"][tag], values)


def test_blowup_in_a_process_pool_reraises_field_invariant_error():
    # dt = 40 overshoots the reaction of a stacked p = q run at the first
    # step; the worker's error must reach the caller, not break the pool
    grid = pde.Grid1D.symmetric(60.0, 0.2)
    fp = FitnessParams(sA=0.0, sB=0.0, SA=0.1, SB=0.1, r=0.1, sigma2=2.0)
    cfg = pde.SimConfig(dt=40.0, t_end=400.0, record_every=1)
    init = pde.stacked_pqd_init(grid, 0.1, 2.0)
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
        with pytest.raises(FieldInvariantError, match=r"at t=40\.0") as info:
            pool.submit(pde.simulate_pqd, init, fp, grid, cfg).result()
    assert info.value.diagnostics["t"] == 40.0
    assert set(info.value.diagnostics["snapshot"]) == {"p", "q", "D"}
