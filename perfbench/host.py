"""A fixed program that gauges how fast the host runs fresh interpreters.

It does the kind of work the morsespec CLI does (build tens of thousands of
small tuples, index them in a dict, set updates, a keyed sort, big-int
masks, number formatting) and imports nothing from morsespec, so its time
moves with the host and never with the program under test.  Changing it
changes every scaled time the benchmark reports.
"""

n = 30000
cells = [(i, (i * 7) % n, (i * 13) % n, tuple(range(i % 4))) for i in range(n)]
idx = {c[0]: c for c in cells}
acc = set()
for c in cells:
    acc.symmetric_difference_update((idx[c[1]][2], idx[c[2]][1]))
order = sorted(cells, key=lambda c: (c[2], c[1], -c[0]))
v = 0
for c in order[:10000:7]:
    v ^= 1 << c[1]
text = ",".join(str(c[1] / 1024) for c in order)
