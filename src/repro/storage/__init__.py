"""Storage substrate: block codec, simulated device, disk-resident graph."""

from .codec import ID_DTYPE, VertexFormat, block_checksum
from .device import (
    BlockDevice,
    DeviceClosedError,
    DiskSpec,
    IOCounters,
    device_for_blocks,
)
from .disk_graph import DiskBlock, DiskGraph, build_disk_graph
from .faults import (
    ChecksumError,
    CrashInjector,
    FaultError,
    FaultInjector,
    FaultSpec,
    ReadFaultError,
    SimulatedCrash,
    WriteFaultSpec,
    ensure_fault_injection,
)
from .manifest import (
    DigestMismatchError,
    Manifest,
    ManifestError,
    read_manifest,
)
from .persist import (
    IndexLoadError,
    index_files_dir,
    load_diskann,
    load_starling,
    read_index_meta,
    save_diskann,
    save_starling,
)
from .repair import FsckReport, fsck, rebuild_segment
from .wal import (
    WalError,
    WalRecord,
    WalReplay,
    WriteAheadLog,
    replay_wal,
    truncate_torn_tail,
)

__all__ = [
    "BlockDevice",
    "ChecksumError",
    "CrashInjector",
    "DeviceClosedError",
    "DigestMismatchError",
    "DiskBlock",
    "DiskGraph",
    "DiskSpec",
    "FaultError",
    "FaultInjector",
    "FaultSpec",
    "FsckReport",
    "ID_DTYPE",
    "IOCounters",
    "IndexLoadError",
    "Manifest",
    "ManifestError",
    "ReadFaultError",
    "SimulatedCrash",
    "VertexFormat",
    "WalError",
    "WalRecord",
    "WalReplay",
    "WriteAheadLog",
    "WriteFaultSpec",
    "block_checksum",
    "build_disk_graph",
    "device_for_blocks",
    "ensure_fault_injection",
    "fsck",
    "index_files_dir",
    "load_diskann",
    "load_starling",
    "read_index_meta",
    "read_manifest",
    "rebuild_segment",
    "replay_wal",
    "truncate_torn_tail",
    "save_diskann",
    "save_starling",
]
