"""Layered benchmark for excess-kit: seeded workloads, oracles and tracing."""
