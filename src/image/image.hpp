// crsim process images — the CRIU analogue.
//
// A checkpoint produces a ProcessImage split the way CRIU splits its dump:
//   core    — registers, signal dispositions, pending signal frames
//   mm      — the VMA list
//   pagemap — which pages are populated
//   pages   — raw page contents
//   files   — fd table incl. socket state (TCP_REPAIR analogue)
//   modules — loaded-module table (binary name/base; MELF payload inline)
//
// DynaCut's process rewriter (src/rewriter) mutates this object between
// dump and restore; that is the paper's central mechanism.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "image/page_store.hpp"
#include "melf/binary.hpp"
#include "os/process.hpp"
#include "vm/cpu.hpp"

namespace dynacut::image {

/// core image file: execution state.
struct CoreImage {
  std::string proc_name;
  int pid = 0;
  int ppid = 0;
  vm::Cpu cpu;
  std::array<os::SigAction, os::sig::kNumSignals> sigactions{};
  std::vector<uint64_t> signal_frames;
};

/// One mm-image row.
struct VmaImage {
  uint64_t start = 0;
  uint64_t end = 0;
  uint32_t prot = 0;
  std::string name;
};

/// files image row. The live Socket object is carried through checkpoint/
/// restore within one OS instance (CRIU's TCP_REPAIR keeps the connection
/// alive); the serialized byte queues allow full (de)serialization and
/// detached restores.
struct FdImage {
  int fd = 0;
  os::FileDesc::Kind kind = os::FileDesc::Kind::kConsole;
  uint8_t sock_kind = 0;  ///< 0 unbound, 1 listen, 2 stream
  uint16_t port = 0;
  std::vector<uint8_t> rx_bytes;  ///< buffered inbound data at dump time
  std::vector<uint8_t> tx_bytes;  ///< buffered outbound data at dump time
  std::shared_ptr<os::Socket> live;  ///< not serialized
};

struct ModuleImage {
  std::string name;
  uint64_t base = 0;
  uint64_t size = 0;
  std::shared_ptr<const melf::Binary> binary;
};

class ProcessImage {
 public:
  CoreImage core;
  std::vector<VmaImage> vmas;  // mm image
  PageStore pages;             // pagemap + pages (COW blocks)
  std::vector<FdImage> fds;
  std::vector<ModuleImage> modules;

  // --- address-based access used by the rewriter ------------------------
  const VmaImage* vma_at(uint64_t addr) const;
  bool mapped(uint64_t addr, uint64_t n = 1) const;

  /// Reads/writes through the page store; zero-fill semantics for mapped but
  /// unpopulated pages; throws StateError outside every VMA.
  std::vector<uint8_t> read_bytes(uint64_t vaddr, uint64_t n) const;
  void write_bytes(uint64_t vaddr, std::span<const uint8_t> bytes);
  uint8_t read_u8(uint64_t vaddr) const;
  uint64_t read_u64(uint64_t vaddr) const;
  void write_u64(uint64_t vaddr, uint64_t value);

  /// Adds a VMA (library injection). Throws on overlap.
  void add_vma(uint64_t start, uint64_t size, uint32_t prot,
               const std::string& name);
  /// Removes pages and VMA coverage for [start, start+size).
  void drop_range(uint64_t start, uint64_t size);
  /// Grows an existing VMA upward by `extra` bytes (paper: "enlarge VMAs").
  void grow_vma(uint64_t start, uint64_t extra);

  /// First gap of `size` bytes at or above `hint`.
  uint64_t find_free(uint64_t size, uint64_t hint) const;

  const ModuleImage* module_named(const std::string& name) const;
  const ModuleImage* module_at(uint64_t addr) const;

  /// Total dumped page payload (the paper's "image size" column in Fig. 7):
  /// the logical size — every page counted, shared or not.
  uint64_t pages_bytes() const { return pages.logical_bytes(); }

  /// Payload actually resident for this image: pages whose blocks are not
  /// already counted in `seen` (dedup by block identity across images).
  uint64_t resident_pages_bytes(std::set<const void*>* seen = nullptr) const {
    return pages.resident_bytes(seen);
  }

  // --- serialization ------------------------------------------------------
  std::vector<uint8_t> encode() const;
  static ProcessImage decode(std::span<const uint8_t> data);
};

/// Typed key an ImageStore entry is filed under: whose image it is and
/// which customized feature set it carries. `feature_set_tag` is the sorted
/// '+'-joined set of disabled features ("" = pristine/uncustomized); the
/// transactional layer files pre-rewrite images under the reserved tag
/// ImageKey::kPreTag.
struct ImageKey {
  int pid = 0;
  std::string feature_set_tag;

  /// Reserved feature_set_tag for pre-rewrite (pristine) images.
  static constexpr const char* kPreTag = "pre";

  bool operator==(const ImageKey&) const = default;
  bool operator<(const ImageKey& o) const {
    if (pid != o.pid) return pid < o.pid;
    return feature_set_tag < o.feature_set_tag;
  }
  std::string str() const;
};

/// tmpfs-like in-memory image store (the paper checkpoints into tmpfs to
/// keep rewriting off the disk).
///
/// Entries are kept decoded with COW page blocks: put() shares the image's
/// pages instead of serializing them, and get() hands back a shared copy
/// in O(metadata) instead of re-decoding the whole byte stream per call.
/// Live socket handles are stripped on put (exactly what serialization
/// used to do), so a stored image never keeps a connection object alive.
class ImageStore {
 public:
  void put(const ImageKey& key, const ProcessImage& img);
  ProcessImage get(const ImageKey& key) const;
  bool contains(const ImageKey& key) const;
  size_t erase(const ImageKey& key);
  /// Every key in the store, ascending (pid, then tag).
  std::vector<ImageKey> list() const;

  /// Logical page payload across all entries — every page counted once per
  /// image that holds it, shared or not.
  size_t bytes_used() const;

  /// Actually-resident page payload: shared blocks counted once. Pass one
  /// `seen` set across stores *and* live address spaces
  /// (os::Os::resident_pages_bytes) to get true machine-wide resident
  /// bytes — a block is counted by whichever holder sees it first, never
  /// twice. nullptr dedups within this store only.
  size_t resident_bytes(std::set<const void*>* seen = nullptr) const;

 private:
  std::map<ImageKey, ProcessImage> files_;
};

}  // namespace dynacut::image
