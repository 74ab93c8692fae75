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
slots), and an ``insert_routes`` that raises has written nothing; so
does the swap-remove's ``swap_remove`` (short, 2-D, wrong-dtype and
read-only arrays, rows and handles out of range, overlapping outputs),
after whose raise no array has changed.
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
    """Valid calls of the churn intake's entry points: ``n`` starts of
    1 to WIDTH hops, and ``n`` routes and ids inserted at column 2."""
    rng = np.random.default_rng(2)
    starts = [(j, rng.integers(0, BINS, size=1 + j % WIDTH))
              for j in range(n)]
    lengths = rng.integers(1, WIDTH + 1, size=n)
    flat = rng.integers(0, BINS, size=int(lengths.sum()))
    id_column = np.empty(n + 4, dtype=object)
    return {
        "pack_starts": [starts, {}, WIDTH, BINS, np.zeros(n, dtype=np.int64),
                        np.zeros(WIDTH * n, dtype=np.int64), np.zeros(n)],
        "insert_routes": [flat, lengths, np.full((WIDTH, n + 4), BINS - 1),
                          2, BINS - 1, rng.random(BINS), np.zeros(n)],
        "place_ids": [[("id", j) for j in range(n)], 2, id_column,
                      np.arange(n + 4)[::-1].copy(), np.arange(n + 4)],
    }


def read_only(x):
    x = x.copy()
    x.flags.writeable = False
    return x


def intake_swaps(name, args):
    """(position, label, value) swaps of one intake call that must raise."""
    vectors = {pos: args[pos] for pos, value in enumerate(args)
               if isinstance(value, np.ndarray) and value.ndim == 1
               and value.dtype != object}
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
    elif name == "place_ids":
        column = args[2]
        swaps += [(0, "tuple", tuple(args[0])), (0, "None", None),
                  (0, "too many", args[0] * 2), (1, "negative", -1),
                  (1, "past the storage", 5), (1, "float", 2.0),
                  (2, "short", column[:-1]), (2, "2-D", column.reshape(1, -1)),
                  (2, "strided", column[::2]), (2, "None", None),
                  (2, "read-only", read_only(column)),
                  (2, "floats", np.zeros(len(column))), (2, "list", list(column))]
        swaps += [(pos, "read-only", read_only(args[pos])) for pos in (4,)]
        for slot in (N + 4, -1, 10**6):
            bad = args[3].copy()
            bad[2 + N // 2] = slot
            swaps.append((3, f"handle {slot}", bad))
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


def arrays_of(args):
    """Every array of a call, as bytes (object arrays as a list)."""
    return [a.tolist() if a.dtype == object else a.tobytes()
            for a in args if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("name", ["pack_starts", "insert_routes",
                                  "place_ids"])
def test_the_churn_intake_rejects_every_bad_argument(name):
    made = 0
    for pos, label, value in intake_swaps(name, intake_calls()[name]):
        args = intake_calls()[name]
        args[pos] = value
        before = arrays_of(args)
        with pytest.raises(TYPED):
            getattr(lib, name)(*args)
            pytest.fail(f"{name}: arg {pos} {label} returned")
        assert arrays_of(args) == before, label
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
        ("place_ids", {4: ints[:N + 4], 3: ints[N + 3:2 * N + 7]}),
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
    assert args[2].tolist() == [None] * 2 + args[0] + [None] * 2
    assert args[4][args[3][2:N + 2]].tolist() == list(range(2, N + 2))



def remove_calls(n=N):
    """Valid swap_remove calls on an ``n``-row table of ``n + 4`` rows
    (handle j at row j): the untangled chain of three removals, and
    two net moves passed explicitly."""
    cap = n + 4
    rng = np.random.default_rng(5)
    calls = []
    for holes, movers in ((None, None),
                          (np.array([3, 0]), np.array([n - 1, n - 2]))):
        ids = np.empty(cap, dtype=object)
        ids[:n] = [f"id{j}" for j in range(n)]
        calls.append([[3, 0, 5], holes, movers, n,
                      rng.integers(0, BINS, size=(WIDTH, cap)), BINS - 1,
                      rng.random(cap), [rng.random(cap),
                                        rng.random(cap) < 0.5,
                                        np.arange(cap, dtype=np.int32)],
                      ids, np.arange(cap), np.arange(cap)])
    return calls


def snapshot(args):
    """Every array a swap_remove call holds, as bytes (ids as a list)."""
    arrays = [a for a in args if isinstance(a, np.ndarray)] + [
        a for a in args[7] if isinstance(a, np.ndarray)]
    return [a.tolist() if a.dtype == object else a.tobytes()
            for a in arrays]


def remove_swaps(args):
    """(position, label, value) swaps of one swap_remove call that must
    raise; position 7.j swaps column j, and a callable edits a copy."""
    n, cap = args[3], len(args[6])
    explicit = args[1] is not None
    vectors = {6: args[6], 9: args[9], 10: args[10]}
    if explicit:
        vectors.update({1: args[1], 2: args[2]})
    swaps = [(pos, label, value) for pos, x in vectors.items()
             for label, value in (
                 ("short", x[:-1]), ("2-D", x.reshape(1, -1)),
                 ("strided", x[::2]), ("list", x.tolist()), ("None", None),
                 ("wrong dtype", x.astype(np.float64 if x.dtype == np.int64
                                          else np.int64)))]
    swaps += [(pos, "read-only", read_only(args[pos])) for pos in (6, 9, 10)]
    swaps += [(8, "short", args[8][:-1]), (8, "float", np.zeros(cap)),
              (8, "read-only", read_only(args[8])), (8, "None", None),
              (4, "read-only", read_only(args[4])),
              (4, "int32", args[4].astype(np.int32)),
              (4, "short", args[4][:, :-1]), (4, "1-D", args[4][0]),
              (4, "list", args[4].tolist())]
    for j, x in enumerate(args[7]):
        swaps += [(7, f"column {j} {label}", value) for label, value in (
            ("short", x[:-1]), ("2-D", x.reshape(1, -1)),
            ("read-only", read_only(x)), ("objects", x.astype(object)),
            ("strided", np.repeat(x, 2)[::2]), ("list", x.tolist()))]
    swaps += [(0, "tuple", tuple(args[0])), (0, "a str", ["3"]),
              (0, "a float", [3.0]), (0, "past the table", [cap]),
              (0, "negative", [-1]), (0, "huge", [2**70]),
              (7, "a tuple of columns", tuple(args[7])),
              (3, "negative n", -1), (3, "n past the table", cap + 1),
              (3, "fewer rows than removals", 2), (3, "a float", float(n)),
              (5, "a float pad", float(BINS - 1))]
    if explicit:
        swaps += [(1, "hole in the tail", np.array([3, n - 3])),
                  (1, "negative hole", np.array([3, -1])),
                  (2, "mover below the tail", np.array([n - 1, n - 4])),
                  (2, "mover past n", np.array([n - 1, n])),
                  (2, "longer than holes", np.array([n - 1, n - 2, n - 3])),
                  (1, "more moves than removals", np.array([3, 0, 1, 2])),
                  (2, "None", None)]
    else:
        swaps += [(1, "holes without movers", np.array([3, 0]))]
    bad_rows = [("a mover's handle past the table", 9, n - 1, cap),
                ("a mover's negative handle", 9, n - 2, -7)]
    if not explicit:    # the chain reads each handle's row
        bad_rows += [("a handle's row past n", 10, 3, n),
                     ("a negative row", 10, 0, -1),
                     ("a row past the table", 10, 5, 10**6)]
    for label, pos, row, value in bad_rows:
        def edit(x, row=row, value=value):
            x = x.copy()
            x[row] = value
            return x
        swaps.append((pos, label, edit(args[pos])))
    return swaps


@pytest.mark.parametrize("explicit", [False, True])
def test_swap_remove_rejects_every_bad_argument(explicit):
    made = 0
    for pos, label, value in remove_swaps(remove_calls()[explicit]):
        args = remove_calls()[explicit]
        if label.startswith("column"):
            args[7][int(label.split()[1])] = value
        else:
            args[pos] = value
        before = snapshot(args)
        with pytest.raises(TYPED):
            lib.swap_remove(*args)
            pytest.fail(f"arg {pos} {label} returned")
        assert snapshot(args) == before, label
        made += 1
    with pytest.raises(TypeError):
        lib.swap_remove(*remove_calls()[explicit][:-1])
    assert made > 60, made


def test_swap_remove_writes_nothing_on_a_tangled_chain():
    args = remove_calls()[0]
    args[0] = [3, N - 2, 0]          # row N - 2 lies in the freed tail
    before = snapshot(args)
    assert lib.swap_remove(*args) is False
    assert snapshot(args) == before


def test_swap_remove_rejects_overlapping_outputs():
    cap = N + 4
    ints = np.arange(3 * cap)
    floats = np.random.default_rng(6).random(2 * cap)
    cases = [{9: ints[:cap], 10: ints[cap - 1:2 * cap - 1]},
             {6: floats[:cap], 7: [floats[:cap]]},
             {7: [floats[:cap], floats[1:cap + 1]]},
             {10: ints[:cap], 1: ints[:2], 2: ints[2:4]},
             {9: ints[:cap], 4: ints[:WIDTH * cap].reshape(WIDTH, cap)}]
    for swap in cases:
        args = remove_calls()[1]
        for pos, value in swap.items():
            args[pos] = value
        before = snapshot(args)
        with pytest.raises(ValueError, match="overlaps"):
            lib.swap_remove(*args)
            pytest.fail(f"{sorted(swap)}")
        assert snapshot(args) == before
    for args in remove_calls():     # the valid calls pass
        assert lib.swap_remove(*args) is True
