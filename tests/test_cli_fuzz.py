"""Property test: the CLI answers any problem or sequence file with exit 0
(a report) or 2 (invalid input), and never raises.

The documents are drawn near the valid ones, then one field is broken: a
NaN, an infinity, a wrong type or shape, a missing or unknown field, a
non-object root, or bytes that are not JSON or not UTF-8. Magnitudes stay
small, so every accepted document runs in milliseconds. The examples are
derandomized, so every run draws the same ones.
"""
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hologate.cli import main

FUZZ = settings(max_examples=60, derandomize=True, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])

#: Values no field of a valid document takes.
BAD = st.sampled_from([math.nan, math.inf, -math.inf, None, "1", True, [], {}, [[1.0]], -1.0])
#: Documents that are not objects.
NON_OBJECTS = st.sampled_from([[], [1, 2], 3, "X", None, [{"target": "X"}]])


def run(command: str, text: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_bytes(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main([command, "--input", str(path)])


def encoded(doc) -> bytes:
    return json.dumps(doc).encode()  # NaN and infinities as their JSON literals


@st.composite
def broken(draw, doc: dict):
    """doc as it is (half the time), or with one field replaced, removed or added."""
    how = draw(st.sampled_from(["keep", "keep", "keep", "replace", "remove", "add"]))
    key = draw(st.sampled_from(sorted(doc)))
    if how == "replace":
        doc[key] = draw(BAD)
    elif how == "remove":
        del doc[key]
    elif how == "add":
        doc["unknown"] = 1
    return doc


def floats(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def unitary_doc(draw, d: int):
    """A d x d target: a seeded unitary, or any small matrix."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    else:
        entries = draw(st.lists(floats(-1.0, 1.0), min_size=2 * d * d, max_size=2 * d * d))
        q = np.reshape(entries[: d * d], (d, d)) + 1j * np.reshape(entries[d * d:], (d, d))
    return {"real": q.real.tolist(), "imag": q.imag.tolist()}


@st.composite
def problem_docs(draw):
    two = draw(st.booleans())
    names = ["CNOT"] if two else ["X", "Y", "Z", "H", "P", "T", "I"]
    target = draw(st.sampled_from(names) | unitary_doc(4 if two else 2))
    n_loops = draw(st.integers(1, 2 if two else 3))
    doc = {"target": target, "n_loops": n_loops, "seed": draw(st.integers(0, 2**31)),
           # a small search budget: only the simplex reads them
           "restarts": draw(st.integers(1, 2)), "max_evals": draw(st.integers(1, 30))}
    if draw(st.booleans()):
        per_loop = []
        for _ in range(7 if two else 2):
            lo = draw(floats(0.0, 8.0) if two else floats(1.0001, 6.0))
            per_loop.append([lo, lo + draw(floats(1e-3, 7.0))])
        doc["bounds"] = per_loop * draw(st.sampled_from([1, n_loops]))
    if draw(st.booleans()):
        doc["penalty_weight"] = draw(floats(0.0, 20.0))
    return draw(broken(doc))


@st.composite
def segment_doc(draw, n: int):
    w = draw(floats(0.5, 8.0)) * draw(st.sampled_from([1.0, -1.0]))
    doc = {
        "omega_drive": draw(st.lists(floats(0.0, 5.0), min_size=n, max_size=n)),
        "omega_rot": [w] * n,
        "phase": draw(st.lists(floats(-7.0, 7.0), min_size=n, max_size=n)),
        "detuning": draw(st.lists(floats(-4.0, 4.0), min_size=n, max_size=n)),
        # whole drive periods, or (rarely) a segment that is not cyclic
        "duration": 2.0 * math.pi * draw(st.sampled_from([1, 2, 3, 1.5])) / abs(w),
    }
    if n > 1:
        doc["couplings"] = {"0,1": draw(floats(-3.0, 3.0))}
    return doc


@st.composite
def sequence_docs(draw):
    n = draw(st.integers(1, 3))
    segments = draw(st.lists(segment_doc(n), min_size=1, max_size=3))
    segments[0] = draw(broken(segments[0]))
    return draw(broken({"n": n, "segments": segments}))


def documents(valid):
    """valid documents (most of them still accepted) half the time; else a
    non-object, arbitrary bytes, or a file that is not UTF-8."""
    kinds = [valid.map(encoded)] * 3 + [NON_OBJECTS.map(encoded), st.binary(max_size=48),
                                        st.just(b'{"target": "\xe9"}')]
    return st.sampled_from(kinds).flatmap(lambda kind: kind)


@FUZZ
@given(text=documents(problem_docs()))
def test_synth_exits_0_or_2(text):
    assert run("synth", text) in (0, 2)


@FUZZ
@given(text=documents(sequence_docs()), command=st.sampled_from(["gate", "phases"]))
def test_sequence_commands_exit_0_or_2(text, command):
    assert run(command, text) in (0, 2)
