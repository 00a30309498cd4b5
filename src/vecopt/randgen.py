"""Seeded random instances, small enough for the exhaustive oracle.

Generated scenarios stay in the magnitude range of the reference
hardware but vary counts, capacities, workloads, and model options; some
draws are deliberately infeasible (more workload than capacity and no
cloud) so solver agreement on the infeasible verdict is exercised too.
"""

from __future__ import annotations

import random

from .oracle import MAX_CELLS
from .scenario import build_routes, validate_scenario, wire_links
from .power import traffic_for_workload
from .types import (
    DemandSpec,
    IFACE_CORE,
    IFACE_DSRC,
    IFACE_WIFI,
    InterfaceSpec,
    ModelOptions,
    NodeSpec,
    Scenario,
    ScenarioError,
)


def random_scenario(
    seed: int, *, max_nodes: int = 6, max_demands: int = 3
) -> Scenario:
    """A small random placement instance; same seed, same scenario."""
    rng = random.Random(seed)
    n_edge = rng.randint(1, 2)
    n_cloud = rng.randint(0, 1)
    n_vehicle = rng.randint(1, max(1, max_nodes - n_edge - n_cloud))

    options = ModelOptions(
        instructions_per_bit=rng.choice([1000.0, 2000.0, 4000.0]),
        cloud_path_energy_per_bit=rng.uniform(1e-7, 1e-6),
        cloud_provisioning=rng.choice(["single_pool", "per_server"]),
        dsrc_medium=rng.choice(["per_link", "shared"]),
    )

    nodes: list[NodeSpec] = []
    for i in range(n_vehicle):
        idle = rng.uniform(3.0, 6.0)
        nodes.append(
            NodeSpec(
                id=f"v{i}",
                tier="vehicle",
                max_power_w=idle + rng.uniform(4.0, 8.0),
                idle_power_w=idle,
                processing_fraction=rng.uniform(0.4, 0.65),
                communication_fraction=rng.uniform(0.1, 0.3),
                capacity_mips=rng.choice([800.0, 1600.0, 2400.0]),
                interfaces=(
                    InterfaceSpec(IFACE_DSRC, 27e6),
                    InterfaceSpec(IFACE_WIFI, 150e6),
                ),
            )
        )
    for j in range(n_edge):
        idle = rng.uniform(6.0, 9.0)
        nodes.append(
            NodeSpec(
                id=f"e{j}",
                tier="edge",
                max_power_w=idle + rng.uniform(20.0, 40.0),
                idle_power_w=idle,
                processing_fraction=rng.uniform(0.3, 0.45),
                communication_fraction=rng.uniform(0.35, 0.5),
                capacity_mips=rng.choice([1800.0, 3600.0, 5400.0]),
                interfaces=(
                    InterfaceSpec(IFACE_WIFI, 150e6),
                    InterfaceSpec(IFACE_CORE, 1e10),
                ),
            )
        )
    for k in range(n_cloud):
        cap = rng.choice([10000.0, 20000.0])
        nodes.append(
            NodeSpec(
                id=f"cloud{k}",
                tier="cloud",
                max_power_w=201.0 + cap / 100.0,
                idle_power_w=rng.uniform(150.0, 250.0),
                processing_fraction=1.0,
                communication_fraction=0.0,
                capacity_mips=cap,
                interfaces=(InterfaceSpec(IFACE_CORE, 1e10),),
            )
        )

    node_tuple = tuple(nodes)
    n_total = len(node_tuple)
    n_demand = rng.randint(1, max(1, min(max_demands, MAX_CELLS // n_total)))
    demands = []
    for d in range(n_demand):
        source = f"v{rng.randrange(n_vehicle)}"
        workload = rng.uniform(400.0, 6000.0)
        demands.append(
            DemandSpec(
                id=f"d{d}",
                source=source,
                workload_mips=workload,
                traffic_bps=traffic_for_workload(
                    workload, options.instructions_per_bit
                ),
            )
        )

    links = wire_links(node_tuple)
    scenario = Scenario(
        nodes=node_tuple,
        links=links,
        demands=tuple(demands),
        routes=build_routes(node_tuple, links),
        options=options,
    )
    problems = validate_scenario(scenario)
    if problems:
        raise ScenarioError(
            f"generated scenario (seed {seed}) invalid: {problems[0]}"
        )
    return scenario
