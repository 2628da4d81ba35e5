"""What one case's autodiff graph keeps alive, in bytes by op.

``retained_by_op(loss, outside)`` walks the records reachable from the
loss. Every buffer is counted once, following views (``.base``) to the
array that owns the memory. A record's value that is still alive is
charged as output bytes to the op of the record whose value owns the
buffer, or to its own op if no record's does. An array that a backward
closure holds (through nested helpers and lists) and that no record
has as its value is charged to that closure's op as closure bytes.
Leaf values and the arrays passed as ``outside`` (parameters, the input
volume and mask: memory that lives without the graph) are not counted.

Run as a script it prints the table for one case of the default desk
model at a given volume size, forward plus ``combined_loss``, before the
backward, with the number of records each op made next to its bytes:

    PYTHONPATH=src python tests/graph_bytes.py 32
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict

import numpy as np

from voxseg import model, train
from voxseg.objectives import LossConfig
from voxseg.volume_io import generate_phantom

MIB = 2**20


def owner(arr):
    """The array that owns ``arr``'s memory."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def records(loss):
    """Every record reachable from ``loss``, the leaves included."""
    seen, out, stack = set(), [], [loss._record]
    while stack:
        rec = stack.pop()
        if id(rec) in seen:
            continue
        seen.add(id(rec))
        out.append(rec)
        stack.extend(rec._parents)
    return out


def closure_arrays(fn):
    """ndarrays a backward closure keeps, through nested helpers and lists."""
    for cell in fn.__closure__ or ():
        yield from _arrays_in(cell.cell_contents)


def _arrays_in(held):
    if isinstance(held, np.ndarray):
        yield held
    elif isinstance(held, (list, tuple)):
        for item in held:
            yield from _arrays_in(item)
    elif callable(held) and getattr(held, "__closure__", None):
        yield from closure_arrays(held)


def retained_by_op(loss, outside=()):
    """{op: (output bytes, closure bytes)} of the graph behind ``loss``."""
    recs = records(loss)
    interior = [r for r in recs if r._backward is not None]
    counted = {id(owner(np.asarray(a))) for a in outside}
    counted |= {id(owner(r.data)) for r in recs if r._backward is None}
    table = defaultdict(lambda: [0, 0])

    def charge(arr, op, column):
        buf = owner(arr)
        if id(buf) not in counted:
            counted.add(id(buf))
            table[op][column] += buf.nbytes

    # a view's memory goes to the op whose record owns the buffer
    values = [(rec, rec.data) for rec in interior]
    for rec, value in sorted(values, key=lambda rv: isinstance(rv[1].base, np.ndarray)):
        charge(value, rec.op, 0)
    for rec in interior:
        for arr in closure_arrays(rec._backward):
            charge(arr, rec.op, 1)
    return {op: tuple(v) for op, v in table.items()}


def total_mib(table):
    return sum(a + b for a, b in table.values()) / MIB


def desk_case(size, seed=0):
    """(loss, outside) of one case of the default desk model at size^3,
    init seed ``seed``, on the first phantom of a seed-3 dataset, before
    the backward. ``outside`` holds the parameters, the volume and the mask."""
    spec = model.ModelSpec(vol_dims=(size, size, size)).validate()
    store = model.init_store(spec, seed)
    phantom_seed = int(np.random.SeedSequence([3, 0]).generate_state(1)[0])
    vol, mask = generate_phantom(phantom_seed, dims=(size, size, size), noise_sd=0.02)
    prob = model.forward(spec, store, vol.data)
    loss = train.combined_loss(prob, mask.data, LossConfig())
    outside = [t.data for _, t, _ in store.items()] + [vol.data, mask.data]
    return loss, outside


def main(argv):
    size = int(argv[0]) if argv else 32
    loss, outside = desk_case(size)
    table = retained_by_op(loss, outside)
    counts = Counter(rec.op for rec in records(loss) if rec._backward is not None)
    print(f"{'op':<20}{'records':>9}{'output MiB':>12}{'closure MiB':>13}")
    for op in sorted(counts, key=lambda op: (-sum(table.get(op, (0, 0))), op)):
        out_b, clo_b = table.get(op, (0, 0))
        print(f"{op:<20}{counts[op]:>9}{out_b / MIB:>12.2f}{clo_b / MIB:>13.2f}")
    print(f"{'total':<20}{sum(counts.values()):>9}{total_mib(table):>25.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
