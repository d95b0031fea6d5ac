import numpy as np

from heisweil.checks import Check, Recorder


def test_check_counts_identities_and_keeps_the_first_witness():
    c = Check("demo")
    assert c.passed and c.checks == 0 and c.witness is None
    c(True, "a")
    c(False, "b")
    c(False, "c")
    c(1 == 1, "d")
    assert c.checks == 4 and not c.passed and c.witness == "b"


def test_array_counts_every_entry_in_one_call():
    c = Check("demo")
    c.all(np.ones((3, 4), dtype=bool))
    assert c.checks == 12 and c.passed
    oks = np.ones((2, 3, 5), dtype=bool)
    oks[1, 2, 0] = oks[1, 2, 3] = False
    c.all(oks)
    assert c.checks == 42 and c.witness == [1, 2, 0]
    c.all(oks, lambda *index: "later")
    assert c.checks == 72
    assert c.witness == [1, 2, 0]


def test_array_witness_maps_the_index_to_the_input():
    inputs = np.array([10, 11, 12, 13])
    c = Check("demo")
    c.all(inputs % 2 == 0, lambda i: int(inputs[i]))
    assert c.checks == 4 and c.witness == 11


def test_scalar_failure_after_array_failure_keeps_the_array_witness():
    c = Check("demo")
    c.all(np.array([True, False]))
    c(False, "scalar")
    assert c.witness == [1] and c.checks == 3


def test_recorder_opens_checks_in_order():
    rec = Recorder()
    first, second = rec("one"), rec("two")
    second(False, 7)
    assert [r.check for r in rec] == ["one", "two"]
    assert rec == [first, second] and first.passed and second.witness == 7
