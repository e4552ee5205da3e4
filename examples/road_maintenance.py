"""Live road maintenance: incremental index updates (§5.4) in action.

A logistics operator keeps a distance-signature index over its depots
while the road network changes underneath it: a road closure, rush-hour
congestion, and a newly opened bypass.  Each change is applied
*incrementally* — no rebuild — and the example shows (a) how little of the
index each change touches (the paper's locality claim) and (b) that
queries stay exact throughout.

Run with ``python examples/road_maintenance.py``.
"""

from repro import KnnType, SignatureIndex, random_planar_network, uniform_dataset
from repro.workloads import format_table


def describe(event: str, report) -> list:
    return [
        event,
        len(report.affected_objects),
        report.changed_components,
        report.touched_nodes,
    ]


def main() -> None:
    network = random_planar_network(3_000, seed=33)
    depots = uniform_dataset(network, density=0.008, seed=34)
    # keep_trees=True retains the per-object spanning trees and the
    # reverse edge index — the §5.4 update machinery.
    index = SignatureIndex.build(network, depots, keep_trees=True)
    total = network.num_nodes * len(depots)
    print(
        f"{network.num_nodes} junctions, {len(depots)} depots, "
        f"{total} signature components\n"
    )

    customer = 777
    before = index.knn(customer, 3, knn_type=KnnType.EXACT_DISTANCES)
    print(f"3 nearest depots to customer {customer}: {before}\n")

    rows = []

    # 1. Rush hour: a central road triples its travel cost.
    edge = next(iter(network.edges()))
    report = index.apply_updates(
        [("set_weight", edge.u, edge.v, edge.weight * 3)]
    ).report
    rows.append(describe(f"congestion on ({edge.u},{edge.v})", report))

    # 2. Road closure: remove an edge outright (§5.4.2).
    closable = next(
        e for e in network.edges()
        if network.degree(e.u) > 2 and network.degree(e.v) > 2
    )
    report = index.apply_updates([("remove", closable.u, closable.v)]).report
    rows.append(describe(f"closure of ({closable.u},{closable.v})", report))

    # 3. A new bypass opens between two previously unconnected junctions
    #    (§5.4.1) — a cheap shortcut, so distances improve around it.
    u, v = 10, 1200
    if not network.has_edge(u, v):
        report = index.apply_updates([("add", u, v, 2.0)]).report
        rows.append(describe(f"new bypass ({u},{v})", report))

    # 4. A new junction with two access roads (§5.4's node reduction).
    node, report = index.add_node(5.0, 5.0, [(20, 3.0), (21, 4.0)])
    rows.append(describe(f"new junction {node}", report))

    print(format_table(
        ["event", "depots affected", "components changed", "nodes touched"],
        rows,
        title=f"update locality (out of {total} components)",
    ))

    # Queries remain exact: the library can self-check against fresh
    # Dijkstra runs at any point.
    index.refresh_storage()
    index.verify(sample_nodes=12, seed=1)
    after = index.knn(customer, 3, knn_type=KnnType.EXACT_DISTANCES)
    print(f"\n3 nearest depots after all changes: {after}")
    print("self-check against fresh Dijkstra runs: OK")


if __name__ == "__main__":
    main()
