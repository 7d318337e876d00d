"""Spritely NFS reproduction.

A from-scratch implementation of the systems in "Spritely NFS:
Experiments with Cache-Consistency Protocols" (Srinivasan & Mogul,
SOSP 1989): a discrete-event simulated distributed-systems substrate
(hosts, disks, a Unix-like local filesystem, an RPC network), the NFS
baseline protocol, the SNFS protocol with the Sprite consistency
mechanism, an RFS-style intermediate baseline, the paper's workloads,
and experiment harnesses for every table and figure.

Typical use::

    from repro import build_testbed, OpenMode

    bed = build_testbed("snfs", remote_tmp=True)
    k = bed.client.kernel

    def workload():
        fd = yield from k.open("/data/hello", OpenMode.WRITE, create=True)
        yield from k.write(fd, b"cached, delayed, consistent")
        yield from k.close(fd)

    bed.run(workload())
"""

from .lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    # simulation & substrate
    "Simulator": ".sim",
    "Network": ".net",
    "NetworkConfig": ".net",
    "RpcEndpoint": ".net",
    "RpcConfig": ".net",
    "Disk": ".storage",
    "DiskConfig": ".storage",
    "BufferCache": ".storage",
    "Host": ".host",
    "HostConfig": ".host",
    "LocalFileSystem": ".fs",
    # filesystem types & errors
    "FileAttr": ".fs",
    "FileHandle": ".fs",
    "FileType": ".fs",
    "OpenMode": ".fs",
    "FsError": ".fs",
    "NoSuchFile": ".fs",
    "StaleHandle": ".fs",
    # the protocol-agnostic remote-FS core
    "RemoteFsClient": ".proto",
    "RemoteFsServer": ".proto",
    "RemoteFsConfig": ".proto",
    "ConsistencyPolicy": ".proto",
    # protocols
    "NfsServer": ".nfs",
    "NfsClient": ".nfs",
    "NfsClientConfig": ".nfs",
    "mount_nfs": ".nfs",
    "SnfsServer": ".snfs",
    "SnfsClient": ".snfs",
    "SnfsClientConfig": ".snfs",
    "mount_snfs": ".snfs",
    "StateTable": ".snfs",
    "FileState": ".snfs",
    "RfsServer": ".rfs",
    "RfsClient": ".rfs",
    "mount_rfs": ".rfs",
    "KentServer": ".kent",
    "KentClient": ".kent",
    "mount_kent": ".kent",
    "LeaseServer": ".lease",
    "LeaseClient": ".lease",
    "mount_lease": ".lease",
    "LockServer": ".lockd",
    "LockClient": ".lockd",
    "LockTimeout": ".lockd",
    # workloads
    "AndrewBenchmark": ".workloads",
    "AndrewConfig": ".workloads",
    "ExternalSort": ".workloads",
    "SortConfig": ".workloads",
    "make_tree": ".workloads",
    "make_input_records": ".workloads",
    # experiments
    "build_testbed": ".experiments",
    "Testbed": ".experiments",
    "PROTOCOLS": ".experiments",
    "run_andrew": ".experiments",
    "run_sort": ".experiments",
    "run_consistency": ".experiments",
    "andrew_table_5_1": ".experiments",
    "andrew_table_5_2": ".experiments",
    "sort_table_5_3": ".experiments",
    "sort_table_5_4": ".experiments",
    "sort_table_5_5": ".experiments",
    "sort_table_5_6": ".experiments",
    "figure_series": ".experiments",
    "render_figure": ".experiments",
    "consistency_table": ".experiments",
})
__all__.insert(0, "__version__")
