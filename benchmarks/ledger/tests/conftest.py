"""Put the harness modules on the path.

Run explicitly: ``PYTHONPATH=src python -m pytest benchmarks/ledger/tests -q``
(tier-1 collects ``tests/`` only).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
