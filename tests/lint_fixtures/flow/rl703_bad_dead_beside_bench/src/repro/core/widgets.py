"""One export the CLI reads, one only the bench harness reads, one only a
test and an example read, one nothing reads."""


def used_widget():
    return "used"


def bench_only_widget():
    return "bench"


def test_only_widget():
    return "test"


def dead_fixture_widget():
    return "dead"
