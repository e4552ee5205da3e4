"""Load a DIMACS road graph and serve distances from hub labels.

Run with ``python examples/dimacs_hub_labels.py``.

The 9th DIMACS Implementation Challenge distributes the standard road
benchmarks (USA-road-d.NY.gr and friends) in a simple arc format.  This
example writes a tiny graph in that exact format, loads it with
:func:`repro.network.load_dimacs`, builds a hub-label index, and answers
single and batched distance queries.  Point ``load_dimacs`` at a real challenge file (``.gr`` or
``.gr.gz``, optionally with its ``.co`` coordinate file) and everything
below scales up unchanged — or use the CLI:

    python -m repro build USA-road-d.NY.gr objs.txt idx/ \\
        --backend hub
"""

import tempfile
from pathlib import Path

from repro.backends.hub_labels import HubLabelIndex
from repro.network import load_dimacs, uniform_dataset


#: A 6-node graph in DIMACS .gr format: comments, one problem line
#: ("p sp <nodes> <arcs>"), then 1-indexed directed arcs.  Road files
#: list every undirected edge as two arcs; the loader folds them.
TINY_GR = """\
c tiny road network (6 nodes, 7 roads)
p sp 6 14
a 1 2 4
a 2 1 4
a 2 3 2
a 3 2 2
a 3 4 5
a 4 3 5
a 4 5 3
a 5 4 3
a 5 6 6
a 6 5 6
a 1 6 20
a 6 1 20
a 2 5 9
a 5 2 9
"""


def main() -> None:
    # 1. Write and load a DIMACS graph.  (For the real thing, skip the
    #    write and pass the downloaded path + its .co file.)
    with tempfile.TemporaryDirectory() as tmp:
        gr_path = Path(tmp) / "tiny.gr"
        gr_path.write_text(TINY_GR)
        network = load_dimacs(gr_path)
    print(
        f"loaded DIMACS graph: {network.num_nodes} nodes, "
        f"{network.num_edges} undirected edges"
    )

    # 2. Objects on the network and a hub-label index.
    objects = uniform_dataset(network, density=0.5, seed=3)
    index = HubLabelIndex.build(network, objects)
    stats = index.stats()
    print(
        f"hub-label index: {stats['label_entries']} label entries, "
        f"mean label {stats['mean_label_size']:.1f}, "
        f"settle_cap={stats['settle_cap']}"
    )

    # 3. Scalar distance queries (one vectorized label join each).
    targets = [int(obj) for obj in objects]
    for target in targets:
        print(f"distance(0 -> {target}) = {index.distance(0, target):g}")

    # 4. The batched surface: many aligned (node, object) pairs in one
    #    kernel pass — this is what the serving tier's /v1/distance
    #    coalescer calls.  Disconnected pairs come back as inf instead
    #    of raising.
    nodes = [0, 1, 2, 3, 4, 5]
    pairs_objects = [targets[i % len(targets)] for i in range(len(nodes))]
    batch = index.distance_batch(nodes, pairs_objects)
    print("distance_batch:", [f"{d:g}" for d in batch])

    # 5. The usual object queries work too.
    print("3NN of node 0:", index.knn(0, min(3, len(objects))))


if __name__ == "__main__":
    main()
