#include "core/handler_lib.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "melf/builder.hpp"
#include "os/syscall.hpp"

namespace dynacut::core {

using melf::ProgramBuilder;

namespace {

/// The 11-byte sigreturn stub registered as the signal restorer (the
/// paper's injected rt_sigreturn restorer code).
void emit_restorer(ProgramBuilder& b) {
  b.func("dynacut_restorer").sys(os::sys::kSigreturn);
}

/// Where a table lives once its library is loaded at `base`.
struct TableAddrs {
  uint64_t count_addr;
  uint64_t records_addr;
  uint64_t capacity;  ///< records the records symbol really holds
};

TableAddrs locate(const melf::Binary& lib, uint64_t base,
                  const GuestTable& t) {
  const melf::Symbol* count = lib.find_symbol(t.count_sym);
  const melf::Symbol* records = lib.find_symbol(t.records_sym);
  DYNACUT_ASSERT(count != nullptr && records != nullptr);
  return TableAddrs{base + count->value, base + records->value,
                    records->size / t.record_bytes};
}

}  // namespace

std::shared_ptr<const melf::Binary> build_redirect_lib(size_t capacity) {
  ProgramBuilder b(kSigLibName);
  b.data("redirect_count", std::vector<uint8_t>(8, 0));
  b.data("redirect_table", std::vector<uint8_t>(capacity * 16, 0));

  auto& f = b.func("dynacut_handler");
  // r1 = signal frame, r3 = fault (trap) address.
  f.lea_sym(6, "redirect_count")
      .load(7, 6, 0)
      .lea_sym(6, "redirect_table")
      .label("loop")
      .cmp_ri(7, 0)
      .je("not_found")
      .load(8, 6, 0)
      .cmp_rr(8, 3)
      .je("found")
      .add_ri(6, 16)
      .sub_ri(7, 1)
      .jmp("loop")
      .label("found")
      .load(8, 6, 8)
      .store(1, 0, 8)  // frame->saved_ip = redirect target
      .ret()
      .label("not_found")
      .mov_ri(1, 134)
      .sys(os::sys::kExit);

  emit_restorer(b);
  return std::make_shared<melf::Binary>(b.link());
}

std::shared_ptr<const melf::Binary> build_verifier_lib(size_t capacity,
                                                       size_t log_capacity) {
  ProgramBuilder b(kVerifyLibName);
  b.data("orig_count", std::vector<uint8_t>(8, 0));
  b.data("orig_table", std::vector<uint8_t>(capacity * 16, 0));
  b.data("log_count", std::vector<uint8_t>(8, 0));
  b.data_u64("log_cap", log_capacity);
  b.data("log_buf", std::vector<uint8_t>(log_capacity * 8, 0));

  auto& f = b.func("dynacut_verify_handler");
  // r1 = signal frame, r3 = fault (trap) address.
  f.lea_sym(6, "orig_count")
      .load(7, 6, 0)
      .lea_sym(6, "orig_table")
      .label("loop")
      .cmp_ri(7, 0)
      .je("not_found")
      .load(8, 6, 0)
      .cmp_rr(8, 3)
      .je("found")
      .add_ri(6, 16)
      .sub_ri(7, 1)
      .jmp("loop");

  // Found: r9 = original byte; mprotect the page RWX and heal in place.
  f.label("found")
      .load(9, 6, 8)
      .push(1)
      .push(3)
      .push(9)
      .mov_rr(1, 3)
      .mov_ri(6, ~static_cast<uint64_t>(kPageSize - 1))
      .and_rr(1, 6)
      .mov_ri(2, kPageSize)
      .mov_ri(3, kProtRead | kProtWrite | kProtExec)
      .sys(os::sys::kMprotect)
      .pop(9)
      .pop(3)
      .pop(1)
      .storeb(3, 0, 9);  // put the original byte back

  // Log the healed address (bounded).
  f.lea_sym(6, "log_count")
      .load(7, 6, 0)
      .lea_sym(8, "log_cap")
      .load(8, 8, 0)
      .cmp_rr(7, 8)
      .jae("done")
      .lea_sym(8, "log_buf")
      .mov_rr(10, 7)
      .shl_ri(10, 3)
      .add_rr(8, 10)
      .store(8, 0, 3)
      .add_ri(7, 1)
      .store(6, 0, 7)
      .label("done")
      .ret();  // sigreturn resumes at the healed instruction

  f.label("not_found").mov_ri(1, 135).sys(os::sys::kExit);

  emit_restorer(b);
  return std::make_shared<melf::Binary>(b.link());
}

std::shared_ptr<const melf::Binary> build_stub_lib(size_t capacity) {
  ProgramBuilder b(kStubLibName);
  b.data("stub_count", std::vector<uint8_t>(8, 0));
  b.data("stub_slots", std::vector<uint8_t>(capacity * kStubSlotBytes, 0));

  for (size_t i = 0; i < capacity; ++i) {
    const int32_t off = static_cast<int32_t>(i * kStubSlotBytes);
    auto& f = b.func("dynacut_stub_" + std::to_string(i));
    f.lea_sym(11, "stub_slots")
        .load(10, 11, off)  // hits++
        .add_ri(10, 1)
        .store(11, off, 10)
        .load(10, 11, off + 8)   // mode
        .load(11, 11, off + 16)  // value
        .cmp_ri(10, static_cast<int32_t>(kStubModePopJmp))
        .je("pop_jmp")
        .cmp_ri(10, static_cast<int32_t>(kStubModeTailJmp))
        .je("tail")
        .mov_rr(0, 11)  // deny-return: r0 = value
        .ret()
        .label("pop_jmp")
        .pop(10)  // drop the call-pushed return address
        .label("tail")
        .jmpr(11);  // into the app's own error path
  }
  return std::make_shared<melf::Binary>(b.link());
}

uint64_t append_records(image::ProcessImage& img, const GuestTable& t,
                        std::span<const uint64_t> words, size_t record_words) {
  DYNACUT_ASSERT(record_words * 8 <= t.record_bytes &&
                 words.size() % record_words == 0);
  const image::ModuleImage* lib = img.module_named(t.lib);
  if (lib == nullptr) {
    throw StateError(std::string(t.records_sym) + ": " + t.lib +
                     " is not injected");
  }
  const TableAddrs at = locate(*lib->binary, lib->base, t);
  const uint64_t n = img.read_u64(at.count_addr);
  const uint64_t added = words.size() / record_words;
  // n is guest-written: test it on its own before subtracting, so no
  // count can wrap the bound or turn into an address outside the table.
  if (n > at.capacity || added > at.capacity - n) {
    throw StateError(std::string(t.records_sym) + " overflow: " +
                     std::to_string(n) + " + " + std::to_string(added) +
                     " records, capacity " + std::to_string(at.capacity));
  }
  for (uint64_t i = 0; i < added; ++i) {
    for (size_t w = 0; w < record_words; ++w) {
      img.write_u64(at.records_addr + (n + i) * t.record_bytes + w * 8,
                    words[i * record_words + w]);
    }
  }
  img.write_u64(at.count_addr, n + added);
  return n;
}

TableRead read_table(const os::Process& p, const GuestTable& t) {
  TableRead out;
  const os::LoadedModule* lib = p.module_named(t.lib);
  if (lib == nullptr) return out;
  const TableAddrs at = locate(*lib->binary, lib->base, t);
  out.capacity = at.capacity;
  p.mem.peek(at.count_addr, &out.raw_count, 8);
  const uint64_t count = std::min(out.raw_count, out.capacity);
  std::vector<uint8_t> raw(count * t.record_bytes);
  if (count > 0) p.mem.peek(at.records_addr, raw.data(), raw.size());
  out.heads.resize(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::memcpy(&out.heads[i], raw.data() + i * t.record_bytes, 8);
  }
  return out;
}

}  // namespace dynacut::core
