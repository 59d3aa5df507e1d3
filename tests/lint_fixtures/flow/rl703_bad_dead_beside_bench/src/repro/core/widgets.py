"""One export the CLI reads, one only the bench harness reads, one dead."""


def used_widget():
    return "used"


def bench_only_widget():
    return "bench"


def dead_fixture_widget():
    return "dead"
