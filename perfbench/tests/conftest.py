"""Make the benchmark's modules and the checkout's program importable."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from common import use_checkout_source  # noqa: E402

use_checkout_source()
