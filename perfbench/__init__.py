"""End-to-end benchmark of the served ACM application.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` serves the generated ACM WebML application from its own
process (``AsyncAppServer`` over loopback, durable WAL database) and
drives one seeded traffic mix against it from a single client process
over two keep-alive connections.  The last line of standard output is a
JSON result; see ``perfbench/README.md`` for the workloads and metrics.
"""
