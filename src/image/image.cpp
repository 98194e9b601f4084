#include "image/image.hpp"

#include <memory>
#include <set>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "image/block_store.hpp"

namespace dynacut::image {

namespace {
/// Largest VMA decode() accepts (4 GiB).
constexpr uint64_t kMaxDecodedVmaBytes = uint64_t{1} << 32;
}  // namespace

const ModuleImage* ProcessImage::module_named(const std::string& name) const {
  for (const auto& m : modules) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

std::vector<uint8_t> ProcessImage::encode() const {
  ByteWriter w;
  w.str("CRSIMIMG");

  // core
  w.str(core.proc_name);
  w.i32(core.pid);
  w.i32(core.ppid);
  for (uint64_t r : core.cpu.regs) w.u64(r);
  w.u64(core.cpu.ip);
  w.u64(core.cpu.pack_flags());
  for (const auto& sa : core.sigactions) {
    w.u64(sa.handler);
    w.u64(sa.restorer);
  }
  w.u32(static_cast<uint32_t>(core.signal_frames.size()));
  for (uint64_t f : core.signal_frames) w.u64(f);

  // mm
  w.u32(static_cast<uint32_t>(mem.vma_count()));
  for (const auto& [start, v] : mem.vmas()) {
    w.u64(v.start);
    w.u64(v.end);
    w.u32(v.prot);
    w.str(v.name);
  }

  // pagemap + pages
  const std::vector<uint64_t> pages = mem.populated_pages();
  w.u32(static_cast<uint32_t>(pages.size()));
  for (uint64_t addr : pages) {
    w.u64(addr);
    std::span<const uint8_t> bytes = mem.page_bytes(addr);
    w.raw(bytes.data(), bytes.size());
  }

  // files
  w.u32(static_cast<uint32_t>(fds.size()));
  for (const auto& f : fds) {
    w.i32(f.fd);
    w.u8(static_cast<uint8_t>(f.kind));
    w.u8(f.sock_kind);
    w.u16(f.port);
    w.blob(f.rx_bytes);
    w.blob(f.tx_bytes);
  }

  // modules (MELF payload inline so the image is self-contained)
  w.u32(static_cast<uint32_t>(modules.size()));
  for (const auto& m : modules) {
    w.str(m.name);
    w.u64(m.base);
    w.u64(m.size);
    w.blob(m.binary->encode());
  }
  return w.take();
}

ProcessImage ProcessImage::decode(std::span<const uint8_t> data) {
  ByteReader r(data);
  if (r.str() != "CRSIMIMG") throw DecodeError("bad process image magic");
  ProcessImage img;

  img.core.proc_name = r.str();
  img.core.pid = r.i32();
  img.core.ppid = r.i32();
  for (auto& reg : img.core.cpu.regs) reg = r.u64();
  img.core.cpu.ip = r.u64();
  img.core.cpu.unpack_flags(r.u64());
  for (auto& sa : img.core.sigactions) {
    sa.handler = r.u64();
    sa.restorer = r.u64();
  }
  uint32_t nframes = r.u32();
  for (uint32_t i = 0; i < nframes; ++i) {
    img.core.signal_frames.push_back(r.u64());
  }

  uint32_t nvma = r.u32();
  for (uint32_t i = 0; i < nvma; ++i) {
    const uint64_t start = r.u64();
    const uint64_t end = r.u64();
    const uint32_t prot = r.u32();
    const std::string name = r.str();
    // Unmapping a VMA gives each of its pages a page-table slot, so an
    // untrusted size is bounded here.
    if (start != page_floor(start) || end != page_floor(end) || end <= start ||
        end - start > kMaxDecodedVmaBytes) {
      throw DecodeError("process image VMA malformed: " + name);
    }
    try {
      img.mem.map(start, end - start, prot, name);
    } catch (const StateError& e) {
      throw DecodeError(e.what());
    }
  }

  uint32_t npages = r.u32();
  for (uint32_t i = 0; i < npages; ++i) {
    uint64_t addr = r.u64();
    if (addr != page_floor(addr) || img.mem.vma_at(addr) == nullptr) {
      throw DecodeError("process image page outside every VMA");
    }
    auto bytes = std::make_shared<std::vector<uint8_t>>(kPageSize);
    r.raw(bytes->data(), bytes->size());
    img.mem.install_page_block(addr,
                               BlockStore::global().intern(std::move(bytes)));
  }

  uint32_t nfds = r.u32();
  for (uint32_t i = 0; i < nfds; ++i) {
    FdImage f;
    f.fd = r.i32();
    f.kind = static_cast<os::FileDesc::Kind>(r.u8());
    f.sock_kind = r.u8();
    f.port = r.u16();
    f.rx_bytes = r.blob();
    f.tx_bytes = r.blob();
    img.fds.push_back(std::move(f));
  }

  uint32_t nmods = r.u32();
  for (uint32_t i = 0; i < nmods; ++i) {
    ModuleImage m;
    m.name = r.str();
    m.base = r.u64();
    m.size = r.u64();
    auto payload = r.blob();
    m.binary = std::make_shared<melf::Binary>(melf::Binary::decode(payload));
    img.modules.push_back(std::move(m));
  }

  if (!r.done()) throw DecodeError("trailing bytes in process image");
  return img;
}

// ---------------------------------------------------------------------------
// ImageStore
// ---------------------------------------------------------------------------

std::string ImageKey::str() const {
  std::string s = "pid " + std::to_string(pid);
  if (!feature_set_tag.empty()) s += " [" + feature_set_tag + "]";
  return s;
}

void ImageStore::put(const ImageKey& key, const ProcessImage& img) {
  // A COW copy: page blocks are shared, not serialized. Stripping the live
  // socket handles preserves the semantics of the encode/decode round trip
  // this replaced — a stored image must not keep connections alive.
  ProcessImage stored = img;
  for (auto& f : stored.fds) f.live.reset();
  files_[key] = std::move(stored);
}

ProcessImage ImageStore::get(const ImageKey& key) const {
  auto it = files_.find(key);
  if (it == files_.end()) throw StateError("no image for " + key.str());
  return it->second;  // COW copy: O(metadata), pages shared
}

bool ImageStore::contains(const ImageKey& key) const {
  return files_.find(key) != files_.end();
}

size_t ImageStore::erase(const ImageKey& key) { return files_.erase(key); }

size_t ImageStore::bytes_used() const {
  size_t total = 0;
  for (const auto& [k, img] : files_) total += img.pages_bytes();
  return total;
}

size_t ImageStore::resident_bytes(std::set<const void*>* seen) const {
  std::set<const void*> local;
  std::set<const void*>& s = seen != nullptr ? *seen : local;
  size_t total = 0;
  for (const auto& [k, img] : files_) total += img.resident_pages_bytes(&s);
  return total;
}

}  // namespace dynacut::image
