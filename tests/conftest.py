import sys
from pathlib import Path

from hypothesis import settings

# Make the sibling oracle helpers importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))


def nine_point_layout():
    """Nine timestamps whose merge order walks pairs left to right.

    Adjacent gaps: 1, 3, 1.2, 4.8, 2.5, 17.5, 4, 5. Single linkage merges
    (1) e1+e2, (2) e3+e4, (3) e5+e6, (4) the two leftmost pairs, (5) e7+e8,
    (6) the left block with e5e6, (7) e9 joins e7e8, (8) root. With interval
    counts [2, 2, 3, 1] the leaves e1..e4 land at scale 1, e5 and e6 at
    scale 2, and e7, e8, e9 at scale 3.
    """
    return [0.0, 1.0, 4.0, 5.2, 10.0, 12.5, 30.0, 34.0, 39.0]


# Property tests draw the same examples on every run and never time out on a
# slow or shared host.
settings.register_profile("nextevent", deadline=None, derandomize=True)
settings.load_profile("nextevent")
