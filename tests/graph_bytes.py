"""What one case's autodiff graph keeps alive, in bytes by op.

``retained_by_op(loss, outside)`` walks the records reachable from the
loss. Every buffer is counted once, following views (``.base``) to the
array that owns the memory. A record's value that is still alive is
charged as output bytes to the op of the record whose value owns the
buffer, or to its own op if no record's does. An array that a backward
closure holds (through nested helpers and lists) and that no record
has as its value is charged to that closure's op as closure bytes; one
that a closure reaches through a rebuild hook (a norm's mean and inverse
std) goes to the op whose closure holds it itself, where one does.
Leaf values and the arrays passed as ``outside`` (parameters, the input
volume and mask: memory that lives without the graph) are not counted.

Run as a script it prints the table for one case of the default desk
model at a given volume edge and patch edge (default 4), forward plus
``combined_loss``, before the backward, with the number of records each
op made next to its bytes, and then the tracemalloc peak of one forward
plus backward of that case (``step_peak_mib``): the transient a training
step adds on top of the parameters and inputs. 32 4 is the desk
geometry; 64 8 and 128 16 are the paper's crops at the same 512 tokens:

    PYTHONPATH=src python tests/graph_bytes.py 32
    PYTHONPATH=src python tests/graph_bytes.py 128 16
"""

from __future__ import annotations

import sys
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

from voxseg import autodiff as ad
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


def closure_arrays(fn, nested=True):
    """ndarrays a backward closure keeps, through lists and, with
    ``nested``, through the helpers and rebuild hooks it holds."""
    for cell in fn.__closure__ or ():
        yield from _arrays_in(cell.cell_contents, nested)


def _arrays_in(held, nested):
    if isinstance(held, np.ndarray):
        yield held
    elif isinstance(held, (list, tuple)):
        for item in held:
            yield from _arrays_in(item, nested)
    elif nested and callable(held) and getattr(held, "__closure__", None):
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
    for nested in (False, True):
        for rec in interior:
            for arr in closure_arrays(rec._backward, nested):
                charge(arr, rec.op, 1)
    return {op: tuple(v) for op, v in table.items()}


def total_mib(table):
    return sum(a + b for a, b in table.values()) / MIB


def desk_inputs(size, patch=4, seed=0):
    """(spec, store, volume, mask) of the default desk model at size^3 with
    patch^3 patches, init seed ``seed``, and the first phantom of a seed-3
    dataset."""
    dims = (size, size, size)
    spec = model.ModelSpec(vol_dims=dims, patch=(patch, patch, patch)).validate()
    store = model.init_store(spec, seed)
    phantom_seed = int(np.random.SeedSequence([3, 0]).generate_state(1)[0])
    vol, mask = generate_phantom(phantom_seed, dims=dims, noise_sd=0.02)
    return spec, store, vol.data, mask.data


def _loss(spec, store, vol, mask):
    return train.combined_loss(model.forward(spec, store, vol), mask, LossConfig())


def desk_case(size, patch=4, seed=0):
    """(loss, outside) of the ``desk_inputs`` case before the backward.
    ``outside`` holds the parameters, the volume and the mask."""
    spec, store, vol, mask = desk_inputs(size, patch, seed)
    outside = [t.data for _, t, _ in store.items()] + [vol, mask]
    return _loss(spec, store, vol, mask), outside


def step_peak_mib(size, patch=4, seed=0):
    """The tracemalloc peak, in MiB, of one forward, loss and backward of
    the ``desk_inputs`` case, counted from after its parameters and inputs
    exist; the parameter gradients are part of it."""
    case = desk_inputs(size, patch, seed)
    tracemalloc.start()
    try:
        ad.backward(_loss(*case))
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def main(argv):
    size = int(argv[0]) if argv else 32
    patch = int(argv[1]) if len(argv) > 1 else 4
    loss, outside = desk_case(size, patch)
    table = retained_by_op(loss, outside)
    counts = Counter(rec.op for rec in records(loss) if rec._backward is not None)
    print(f"{'op':<20}{'records':>9}{'output MiB':>12}{'closure MiB':>13}")
    for op in sorted(counts, key=lambda op: (-sum(table.get(op, (0, 0))), op)):
        out_b, clo_b = table.get(op, (0, 0))
        print(f"{op:<20}{counts[op]:>9}{out_b / MIB:>12.2f}{clo_b / MIB:>13.2f}")
    print(f"{'total':<20}{sum(counts.values()):>9}{total_mib(table):>25.2f}")
    del loss, outside
    print(f"{'traced step peak':<29}{step_peak_mib(size, patch):>25.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
