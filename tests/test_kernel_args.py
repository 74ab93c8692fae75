"""Argument fuzz of the compiled entry points: a typed error, never a crash.

``fold``, ``scatter``, ``ned_log_pass``, ``f_norm_pass`` and
``threshold_mask`` each start from a valid call over a multi-chunk
table, and one argument at a time is swapped for a hostile one: a wrong
dtype or ndim, a strided or reversed view, a zero-length or short
vector, a read-only output, a non-buffer, a row span past the storage,
a block <= 0, one argument too few.  Each call must raise
``TypeError``, ``ValueError`` or ``IndexError``; the swaps that leave a
valid call (None for an optional vector, reversed or zero-width routes,
fewer bins for both scatter outputs) may also return.  So must a bad
route slot, in one chunk or in the last of many, at T = 1 and 2, and an
output that shares bytes with another argument.  The churn intake's
``pack_starts`` and ``insert_routes`` get the same treatment from an
explicit list of swaps (wrong arity or types, short, read-only or
overlapping outputs, a row offset past the storage, bad hop counts and
slots), and an ``insert_routes`` that raises has written nothing.
``tests/test_kernel_sanitizers.py`` runs this file under ASan + UBSan,
where an out-of-bounds access aborts instead of passing by luck.
"""

import numpy as np
import pytest

from repro.core import kernels

lib = kernels._lib
BLOCK, N, WIDTH, BINS = 7, 30, 3, 11
TYPED = (TypeError, ValueError, IndexError)

#: Per entry point, its buffer arguments (position: kind, "d" a float64
#: input, "D" a float64 output, "B" a bool output, "r" the routes, "o"
#: an optional float64 input) and its integer ones (position: role).
ARGS = {
    "fold": ({1: "d", 2: "r", 6: "D"}, {3: "r0", 4: "r1", 5: "block"}),
    "scatter": ({0: "d", 1: "d", 2: "r", 6: "D", 7: "D"},
                {3: "r0", 4: "r1", 5: "block"}),
    "ned_log_pass": ({0: "d", 1: "r", 4: "o", 5: "d", 7: "D", 8: "D",
                      9: "D"}, {2: "n", 3: "block"}),
    "f_norm_pass": ({0: "d", 1: "r", 4: "d", 7: "D", 8: "o", 9: "B",
                     11: "B"}, {2: "n", 3: "block"}),
    "threshold_mask": ({0: "d", 1: "D", 2: "B", 4: "B"}, {}),
}
BAD_INTS = {"r0": [-1, N + 1], "block": [0, -5]}


def valid_calls(n=N, block=BLOCK):
    # Outputs start zeroed, so a swap that casts one (wrong dtype)
    # casts defined values.
    rng = np.random.default_rng(0)
    routes = rng.integers(0, BINS, size=(WIDTH, n + 4))
    padded, a = rng.random(BINS), rng.random(n)
    last, pending = rng.random(n), rng.random(n) < 0.2
    return {
        "fold": [0, padded, routes, 0, n, block, np.zeros(n)],
        "scatter": [a, -a, routes, 0, n, block, np.zeros(BINS),
                    np.zeros(BINS)],
        "ned_log_pass": [padded, routes, n, block, rng.random(n), a, 1e-9,
                         np.zeros(n), np.zeros(BINS), np.zeros(BINS)],
        "f_norm_pass": [padded, routes, n, block, a, 1e-12, True,
                        np.zeros(n), last, pending, 0.01,
                        np.zeros(n, dtype=bool)],
        "threshold_mask": [a, last, pending, 0.01,
                           np.zeros(n, dtype=bool)],
    }


def hostile(x, kind):
    """(label, value, must raise) for one argument of this kind."""
    if kind == "r":
        return [("int32", x.astype(np.int32), True),
                ("float", x.astype(float), True), ("1-D", x[0], True),
                ("strided", x[:, ::2], True), ("no flows", x[:, :0], True),
                ("list", x.tolist(), True), ("reversed", x[::-1], False),
                ("zero width", x[:0], False)]
    read_only = x.copy()
    read_only.flags.writeable = False
    return [("2-D", x.reshape(1, -1), True), ("strided", x[::2], True),
            ("reversed", x[::-1], True), ("zero length", x[:0], True),
            ("short", x[:-1], True), ("list", x.tolist(), True),
            ("None", None, kind != "o"),
            ("wrong dtype", x.astype(np.uint8 if kind == "B" else np.int64),
             True),
            ("read-only", read_only, kind in "DB")]


def test_every_hostile_argument_raises_a_typed_error():
    made = 0
    for name, (buffers, ints) in ARGS.items():
        swaps = [(pos, label, value, strict)
                 for pos, kind in buffers.items()
                 for label, value, strict in hostile(
                     valid_calls()[name][pos], kind)]
        swaps += [(pos, f"{role}={value}", value, True)
                  for pos, role in ints.items()
                  for value in BAD_INTS.get(role, [N + 5, -1]) + [float(N)]]
        for pos, label, value, strict in swaps:
            args = valid_calls()[name]
            args[pos] = value
            if name == "scatter" and pos in (6, 7) and label in (
                    "short", "zero length"):
                args[13 - pos] = value   # fewer bins for both: valid
                strict = False
            try:
                getattr(lib, name)(*args)
            except TYPED:
                pass
            else:
                assert not strict, f"{name}: arg {pos} {label} returned"
            made += 1
        with pytest.raises(TypeError):
            getattr(lib, name)(*valid_calls()[name][:-1])
    assert made > 200, made


def test_n_past_the_storage_with_long_enough_vectors():
    n = N + 5
    for name, args in valid_calls(n).items():
        if name != "threshold_mask":
            routes = 1 if "pass" in name else 2
            args[routes] = args[routes][:, :n - 1]
            with pytest.raises(ValueError):
                getattr(lib, name)(*args)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("block", [BLOCK, 2**63 - 1])
@pytest.mark.parametrize("bad", [BINS, BINS + 59, 10**6, -1, -66])
def test_a_bad_route_slot_is_an_index_error(bad, block, threads):
    """In the last chunk of many, or in the one chunk of the largest
    block (whose chunk count must not overflow), last column; with
    a second bad slot in chunk 1, on the other thread at T = 2, the
    error is chunk 1's, the one a walk in chunk order stops at."""
    lib._force_threads(threads)
    try:
        for name in ("fold", "scatter", "ned_log_pass", "f_norm_pass"):
            args = valid_calls(block=block)[name]
            routes = args[1 if "pass" in name else 2]
            routes[WIDTH - 1, N - 2] = bad
            with pytest.raises(IndexError, match=f"slot {bad} "):
                getattr(lib, name)(*args)
            routes[0, BLOCK + 3] = -BINS - 5
            with pytest.raises(IndexError, match=f"slot {-BINS - 5} "):
                getattr(lib, name)(*args)
    finally:
        lib._force_threads(0)


def test_an_output_overlapping_another_argument_is_a_value_error():
    floats = np.random.default_rng(1).random(2 * N + BINS)
    flags = np.zeros(N, dtype=bool)
    cases = [
        ("fold", {6: floats[:N], 1: floats[N - 2:N - 2 + BINS]}),
        ("scatter", {6: floats[:BINS], 0: floats[BINS - 1:BINS - 1 + N]}),
        ("scatter", {6: floats[:BINS], 7: floats[:BINS]}),
        ("ned_log_pass", {7: floats[:N], 5: floats[:N]}),
        ("ned_log_pass", {8: floats[:BINS], 0: floats[:BINS]}),
        ("ned_log_pass", {8: floats[:BINS], 9: floats[1:BINS + 1]}),
        ("f_norm_pass", {7: floats[:N], 4: floats[:N]}),
        ("f_norm_pass", {7: floats[:N], 8: floats[1:N + 1]}),
        ("f_norm_pass", {9: flags, 11: flags}),
        ("threshold_mask", {1: floats[:N], 0: floats[:N]}),
        ("threshold_mask", {2: flags, 4: flags}),
    ]
    for name, swap in cases:
        args = valid_calls()[name]
        for pos, value in swap.items():
            args[pos] = value
        with pytest.raises(ValueError, match="overlaps"):
            getattr(lib, name)(*args)
            pytest.fail(f"{name}: {sorted(swap)}")
    # Bytes, not arrays: two halves of one array do not overlap.
    args = valid_calls()["f_norm_pass"]
    args[4], args[7] = floats[:N], floats[N:2 * N]
    lib.f_norm_pass(*args)


def test_force_threads_rejects_a_bad_count():
    for bad, error in ((-1, ValueError), (65, ValueError), ("2", TypeError)):
        with pytest.raises(error):
            lib._force_threads(bad)


def intake_calls(n=N):
    """Valid calls of the churn intake's two entry points: ``n`` starts
    of 1 to WIDTH hops, and ``n`` routes inserted at column 2."""
    rng = np.random.default_rng(2)
    starts = [(j, rng.integers(0, BINS, size=1 + j % WIDTH))
              for j in range(n)]
    lengths = rng.integers(1, WIDTH + 1, size=n)
    flat = rng.integers(0, BINS, size=int(lengths.sum()))
    return {
        "pack_starts": [starts, {}, WIDTH, BINS, np.zeros(n, dtype=np.int64),
                        np.zeros(WIDTH * n, dtype=np.int64), np.zeros(n)],
        "insert_routes": [flat, lengths, np.full((WIDTH, n + 4), BINS - 1),
                          2, BINS - 1, rng.random(BINS), np.zeros(n)],
    }


def read_only(x):
    x = x.copy()
    x.flags.writeable = False
    return x


def intake_swaps(name, args):
    """(position, label, value) swaps of one intake call that must raise."""
    vectors = {pos: args[pos] for pos, value in enumerate(args)
               if isinstance(value, np.ndarray) and value.ndim == 1}
    swaps = [(pos, label, value) for pos, x in vectors.items()
             for label, value in (
                 ("short", x[:-1]), ("2-D", x.reshape(1, -1)),
                 ("strided", x[::2]), ("reversed", x[::-1]),
                 ("list", x.tolist()), ("None", None),
                 ("wrong dtype", x.astype(np.float64 if x.dtype == np.int64
                                          else np.int64)))]
    if name == "pack_starts":
        swaps += [(0, "tuple", tuple(args[0])), (0, "None", None),
                  (1, "list", []), (1, "None", None),
                  (2, "no hops", 0), (2, "negative", -1),
                  (2, "float", float(WIDTH)), (3, "negative", -1),
                  (3, "float", float(BINS)),
                  (4, "too long", np.empty(N + 1, dtype=np.int64)),
                  (5, "a hop short", np.empty(WIDTH * N - 1, dtype=np.int64))]
        swaps += [(pos, "read-only", read_only(args[pos])) for pos in (4, 5, 6)]
    else:
        lengths = args[1]
        swaps += [(2, "read-only", read_only(args[2])),
                  (2, "int32", args[2].astype(np.int32)),
                  (2, "float", args[2].astype(float)), (2, "1-D", args[2][0]),
                  (2, "strided", args[2][:, ::2]), (2, "list", args[2].tolist()),
                  (3, "negative", -1), (3, "past the storage", 5),
                  (3, "float", 2.0), (4, "negative", -1), (4, "past", BINS),
                  (4, "float", float(BINS - 1)),
                  (5, "short", args[5][:3]),
                  (6, "read-only", read_only(args[6]))]
        for label, value in (("no hops", 0), ("too many", WIDTH + 1),
                             ("negative", -1)):
            bad = lengths.copy()
            bad[N // 2] = value
            swaps.append((1, label, bad))
        for slot in (BINS, -1, 10**6):
            bad = args[0].copy()
            bad[-1] = slot
            swaps.append((0, f"slot {slot}", bad))
    return swaps


@pytest.mark.parametrize("name", ["pack_starts", "insert_routes"])
def test_the_churn_intake_rejects_every_bad_argument(name):
    made = 0
    for pos, label, value in intake_swaps(name, intake_calls()[name]):
        args = intake_calls()[name]
        routes = args[2].copy() if name == "insert_routes" else None
        args[pos] = value
        with pytest.raises(TYPED):
            getattr(lib, name)(*args)
            pytest.fail(f"{name}: arg {pos} {label} returned")
        if routes is not None and pos != 2:
            assert args[2].tobytes() == routes.tobytes(), label
        made += 1
    with pytest.raises(TypeError):
        getattr(lib, name)(*intake_calls()[name][:-1])
    assert made > 30, made


def test_the_churn_intake_rejects_overlapping_outputs():
    ints = np.empty(WIDTH * N + N, dtype=np.int64)
    floats = np.random.default_rng(3).random(N + BINS)
    cases = [
        ("pack_starts", {4: ints[:N], 5: ints[N - 1:N - 1 + WIDTH * N]}),
        ("pack_starts", {5: ints[:WIDTH * N],
                         6: ints[:N].view(np.float64)}),
        ("insert_routes", {6: floats[:N], 5: floats[N - 1:N - 1 + BINS]}),
        ("insert_routes", {}),   # flat: a row of the storage it writes
    ]
    for name, swap in cases:
        args = intake_calls()[name]
        for pos, value in swap.items():
            args[pos] = value
        if not swap:
            args[2][0, :len(args[0])] = args[0][:args[2].shape[1]]
            args[0] = args[2][0, :len(args[0])]
        with pytest.raises(ValueError, match="overlaps"):
            getattr(lib, name)(*args)
            pytest.fail(f"{name}: {sorted(swap)}")
    for name, args in intake_calls().items():   # the valid calls pass
        assert (getattr(lib, name)(*args) is None) == (name != "pack_starts")

