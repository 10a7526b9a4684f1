import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from hypothesis import Phase, settings

# Property tests draw the same examples on every run, so tier-1 stays
# deterministic.  A failure is reported as drawn: shrinking it can take minutes.
settings.register_profile(
    "classops", derandomize=True, database=None, deadline=None, max_examples=150,
    phases=[Phase.explicit, Phase.generate],
)
settings.load_profile("classops")
