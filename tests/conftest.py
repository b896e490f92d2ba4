import os

# single-threaded BLAS, as the benchmark pins it, unless the caller chose a
# thread count; pytest loads this file before anything imports NumPy
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from streamreid.data import (Dataset, Domain, Split, SynthConfig,  # noqa: E402
                             generate_synthetic)
from streamreid.mlp import MLP  # noqa: E402
from streamreid.trainer import RunConfig  # noqa: E402

# the run's hyper-parameters, for a kernel test that needs no other value
CFG = RunConfig()


def make_dataset(rows, identities, cameras=None, domain=Domain.SOURCE,
                 split=Split.TRAIN):
    """A Dataset over copies of the given columns (Dataset freezes its
    arrays in place); cameras default to 0."""
    rows = np.array(rows, dtype=np.float64)
    cameras = np.zeros(rows.shape[0]) if cameras is None else cameras
    return Dataset(rows, np.array(identities), np.array(cameras), domain, split)


def identity_extractor(dim):
    """MLP whose features equal its input descriptors."""
    m = MLP([dim, dim], seed=0)
    m.set_params({"layer0.W": np.eye(dim), "layer0.b": np.zeros(dim)})
    return m


def fd_gradient(fun, x, step=1e-5):
    """Central finite differences of scalar fun at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = g.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + step
        fp = fun(x)
        flat_x[i] = orig - step
        fm = fun(x)
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2.0 * step)
    return g


def fd_param_gradients(mlp, loss_fn, step=1e-5):
    """Central finite differences of loss_fn() w.r.t. every MLP parameter,
    as one vector in the layout of mlp.theta."""
    theta = mlp.theta
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        orig = theta[i]
        theta[i] = orig + step
        mlp.mark_updated()
        fp = loss_fn()
        theta[i] = orig - step
        mlp.mark_updated()
        fm = loss_fn()
        theta[i] = orig
        mlp.mark_updated()
        grad[i] = (fp - fm) / (2.0 * step)
    return grad


def max_rel_error(analytic, numeric, floor=1e-6):
    a = np.asarray(analytic, dtype=np.float64)
    f = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(f)))
    return float(np.max(np.abs(a - f) / denom))


@pytest.fixture
def small_synth():
    cfg = SynthConfig(
        synth_source_ids=10, synth_target_ids=8, synth_samples_per_id=6,
        synth_dim=6, synth_intra_std=0.05, synth_shift_kind="identity",
        synth_cameras=2, synth_camera_jitter=0.02, synth_seed=11,
    )
    return generate_synthetic(cfg)[0]
