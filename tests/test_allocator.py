"""The package import keeps freed numpy buffers in glibc's heap between steps."""

import ctypes
import os

import pytest

import spikestag
from spikestag import autograd as ag
from spikestag.data import make_windows, synth_generate
from spikestag.model import Adam, ForecastModel, ModelConfig, clip_grad_norm, mse_loss


def _on_glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError):
        return False


def _allocator_set_by_env() -> bool:
    return ("MALLOC_MMAP_THRESHOLD_" in os.environ or "MALLOC_TRIM_THRESHOLD_" in os.environ
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""))


@pytest.mark.skipif(not _on_glibc() or _allocator_set_by_env(),
                    reason="the allocator is tuned on glibc only, unless the environment sets it")
def test_train_step_takes_no_page_faults_after_warm_up():
    import resource

    cfg = ModelConfig(batch_size=4)
    windows = make_windows(synth_generate(cfg.n_nodes, 300, cfg.seed), cfg.t_in, cfg.horizon)
    model = ForecastModel(cfg)
    model.set_norm_stats(windows.mean, windows.std)
    params = model.parameters()
    opt = Adam(params, lr=cfg.lr)
    batch = windows.batch(windows.train_starts[:cfg.batch_size])
    target = batch.normalized_targets()

    def step():
        loss = mse_loss(model.forward(batch), target)
        model.zero_grad()
        ag.backward(loss)
        clip_grad_norm(params, 1.0)
        opt.step()

    def faults_of_step():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        step()
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    warm_up = [faults_of_step(), faults_of_step()]
    faults = faults_of_step()
    assert faults < 100, (f"{faults} minor page faults in a warm train step, "
                          f"after {warm_up} in the two warm-up steps")


class _NoMallopt:
    pass


def _raise_oserror(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [_raise_oserror, lambda name: _NoMallopt()],
                         ids=["cdll_raises", "no_mallopt"])
def test_no_mallopt_leaves_the_allocator_alone(cdll, monkeypatch):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert spikestag._keep_freed_heap() is False


def _no_confstr(name):
    raise ValueError("unrecognized configuration name")


@pytest.mark.parametrize("confstr", [_no_confstr, lambda name: None, lambda name: "musl"],
                         ids=["raises", "none", "other_libc"])
def test_off_glibc_leaves_the_allocator_alone(confstr, monkeypatch):
    def forbidden(name):
        raise AssertionError("libc opened off glibc")

    monkeypatch.setattr(os, "confstr", confstr)
    monkeypatch.setattr(ctypes, "CDLL", forbidden)
    assert spikestag._keep_freed_heap() is False


@pytest.mark.parametrize("var, value", [("MALLOC_MMAP_THRESHOLD_", "131072"),
                                        ("MALLOC_TRIM_THRESHOLD_", "131072"),
                                        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=0")])
def test_environment_setting_wins(var, value, monkeypatch):
    def forbidden(name):
        raise AssertionError("libc opened although the environment sets the allocator")

    monkeypatch.setenv(var, value)
    monkeypatch.setattr(ctypes, "CDLL", forbidden)
    assert spikestag._keep_freed_heap() is False
