"""Online stochastic min-cost matching under known i.i.d. arrivals.

The matcher re-solves an exact fractional assignment before every
arrival and samples the server from the arrival's column, which keeps
the surviving free set uniformly random.  Everything here is built for
checking that story end to end, one module per part: ``metrics``
(instances, trees, embeddings, file IO), ``flows`` (the exact transport
solver and column sampler), ``bmatching`` (the plan builders and tree
closed forms), ``fairbias`` (the online matcher), ``offline`` (exact
offline optima), ``transship`` (the distribution-reduction wrapper),
``splitmatch`` (the hierarchical tree matcher), ``ballsbins`` (load
statistics), ``harness`` (scenarios and seeded trials), ``verify`` (the
lemma verifiers) and ``cli`` (the ``stochmatch`` command).

The package root re-exports nothing: import each name from the module
that defines it, e.g. ``from stochmatch.metrics import line_metric``.
"""
