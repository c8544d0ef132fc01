"""Alpha-fair power allocation for 2-user downlink NOMA under imperfect SIC.

Library layout (import from the modules):

* :mod:`noma_fair.rates`     the Strategy enum, closed-form OMA/NOMA SINRs and rates
* :mod:`noma_fair.bounds`    power-split bounds, pairing criterion, beta*
* :mod:`noma_fair.fairness`  alpha-fair utility and throughput metric
* :mod:`noma_fair.allocator` the array decision rules and their size-1 wrappers
* :mod:`noma_fair.pairing`   candidate matching, one sort rule
* :mod:`noma_fair.netsim`    Poisson cellular Monte Carlo harness
* :mod:`noma_fair.report`    CSV/JSON artifact emission
* :mod:`noma_fair.cli`       the ``noma-fair`` command
"""

__version__ = "0.1.0"
