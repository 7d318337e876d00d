"""The sampler attributes CPU time to the right layer."""

import importlib.util
import os

import pytest

from perfbench import harness
from perfbench.sampler import LAYERS, OTHER, Sampler, TooFewSamples, repo_classifier

_SPIN = '''
import dataclasses
import time


@dataclasses.dataclass
class Message:
    a: int = 0
    b: int = 0
    c: int = 0


def spin_for(seconds):
    end = time.process_time() + seconds
    x = 0
    while time.process_time() < end:
        for i in range(200):
            x += i * i
    return x


def fields_for(seconds):
    end = time.process_time() + seconds
    message = Message()
    n = 0
    while time.process_time() < end:
        for _ in range(50):
            n += len(dataclasses.fields(message))
    return n
'''


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def layers(tmp_path):
    """Two synthetic layers: the same spin code under two directories."""
    modules = {}
    for layer in ("alpha", "beta"):
        os.makedirs(tmp_path / layer)
        path = tmp_path / layer / "spin.py"
        path.write_text(_SPIN)
        modules[layer] = _load(str(path), "perfbench_test_%s" % layer)

    def classify(filename):
        for layer in modules:
            if filename.startswith(str(tmp_path / layer) + os.sep):
                return layer
        return None

    return modules, classify


def test_three_to_one_split_is_attributed_within_five_points(layers):
    modules, classify = layers
    sampler = Sampler(classify)
    with sampler:
        for _ in range(40):
            modules["alpha"].spin_for(0.03)
            modules["beta"].spin_for(0.01)
    shares = sampler.shares()
    assert sampler.samples >= 200
    assert abs(100 * shares["alpha"] - 75) <= 5
    assert abs(100 * shares["beta"] - 25) <= 5


def test_stdlib_frames_are_charged_to_the_nearest_layer_ancestor(layers):
    modules, classify = layers
    sampler = Sampler(classify)
    with sampler:
        modules["beta"].fields_for(1.0)
    shares = sampler.shares()
    assert shares.get("beta", 0) >= 0.95
    assert shares.get(OTHER, 0) <= 0.05
    through_stdlib = [
        label for label, _count in sampler.functions.items()
        if label.startswith("beta/spin.py:fields_for > ") and "dataclasses.py:fields" in label
    ]
    assert through_stdlib


def test_shares_are_refused_below_two_hundred_samples(layers):
    modules, classify = layers
    sampler = Sampler(classify)
    with sampler:
        modules["alpha"].spin_for(0.05)
    assert sampler.samples < 200
    with pytest.raises(TooFewSamples):
        sampler.shares()


def test_layer_self_times_sum_to_the_sampled_body_wall_within_two_percent():
    from perfbench import surface

    session = harness.Session("andrew", seed=7, quick=False)
    sampler = Sampler(
        repo_classifier(surface.REPRO_DIR, os.path.dirname(os.path.abspath(harness.__file__)))
    )
    body = session.body("timed", "sampled-0", sampler=sampler)
    shares = sampler.shares()
    wall = body.wall
    layered = sum(shares.get(layer, 0.0) * wall for layer in LAYERS)
    assert abs(layered - wall) <= 0.02 * wall
    assert shares.get("sim", 0) > 0.2 and shares.get("net", 0) > 0.1
