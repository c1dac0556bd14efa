"""Explainable fake news detection over claim-centered graphs.

A claim is decomposed into sub-claims arranged in a small dependency graph,
each sub-claim is grounded in retrieved report sentences and argued from both
sides, a verdict is inferred over the serialized graph, and the surviving
explanations are folded into a final human-readable account.
"""
