"""The benchmark tables' reproducibility contract.

The ``tables`` entry of the artifact table regenerates
``bench_output_tables.txt`` in process, spreading its measurements over
worker processes; the rendered sections must be byte-identical whether
one worker ran or many — fixed section order, results placed by task,
no timestamps, no completion-order interleaving.  Uses two cheap
sections so the test stays cheap; ``make check`` compares the whole
file with the committed one.
"""

from repro.analysis.tables import BANNER, encoding_precision, render, table2


def test_parallel_output_byte_identical_to_serial():
    sections = (encoding_precision, table2)
    serial = render(sections, jobs=1)
    parallel = render(sections, jobs=2)
    assert parallel == serial
    # The tables actually made it into the text (not a trivially-empty
    # equality), in the order asked for.
    assert serial.count(BANNER) == 6
    assert serial.index("encoding precision") < serial.index("Table 2")
