"""Known-good fixture for SACHA005 (linted as if under repro/fpga/)."""


def sweep(items, attest):
    # one thread: members run in order, like repro.core.swarm.map_sharded
    return [attest(item) for item in items]
