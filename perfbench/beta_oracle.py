"""Reference Beta CDF values from scipy for the reg_inc_beta spot check.

Reads a JSON list of [x, a, b] rows on stdin and prints the JSON list of
``scipy.stats.beta.cdf(x, a, b)``. It runs as its own process so scipy never
loads into the measured benchmark process.
"""

import json
import sys

from scipy.stats import beta

rows = json.load(sys.stdin)
json.dump([float(beta.cdf(x, a, b)) for x, a, b in rows], sys.stdout)
