// Builders for the position-independent guest libraries DynaCut injects
// into checkpointed images (paper §3.2.2/§3.2.3 and Figure 5).
//
// Both libraries are fully PIC (IP-relative addressing only, no kAbs64
// relocations) so the rewriter can place them at any unused address. Their
// lookup tables are zero-filled .data that the host-side rewriter populates
// after injection, once absolute addresses are known.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "image/image.hpp"
#include "melf/binary.hpp"
#include "os/process.hpp"

namespace dynacut::core {

/// Name under which the redirect handler library is injected.
inline constexpr const char* kSigLibName = "libdynacut_sig.so";
/// Name of the verifier library.
inline constexpr const char* kVerifyLibName = "libdynacut_verify.so";
/// Name of the callsite/PLT deny-stub library (Mechanism::kStub).
inline constexpr const char* kStubLibName = "libdynacut_stub.so";

/// Bytes per stub slot record: {hits, mode, value, reserved}, all u64.
inline constexpr size_t kStubSlotBytes = 32;
/// Slot modes (the `mode` field, written by the host after injection).
inline constexpr uint64_t kStubModeDenyRet = 0;  ///< return `value` (errno)
inline constexpr uint64_t kStubModePopJmp = 1;   ///< drop call RA, jmp value
inline constexpr uint64_t kStubModeTailJmp = 2;  ///< jmp value (tail entry)
/// The `value` of kStubModeDenyRet slots: the HTTP-403 analogue for callers
/// that check the callee's result.
inline constexpr uint64_t kStubDenyResult = 403;

/// Redirect fault handler: on SIGTRAP it looks the faulting address up in
/// `redirect_table` ((trap_addr, target_addr) pairs, `redirect_count`
/// entries) and rewrites the signal frame's saved IP to the target — e.g.
/// the application's own "403 Forbidden" path. Unknown trap addresses
/// terminate the process with exit code 134.
/// Exports: dynacut_handler, dynacut_restorer, redirect_count,
/// redirect_table (capacity entries).
std::shared_ptr<const melf::Binary> build_redirect_lib(size_t capacity);

/// Verifier handler (§3.2.3): instead of terminating, it restores the
/// original first byte of a wrongly-removed block (found in `orig_table`),
/// logs the address into `log_buf`/`log_count`, and sigreturns so the healed
/// instruction re-executes. Requires the code pages to be W|X (the DynaCut
/// host arranges that when installing verify mode).
/// Exports: dynacut_verify_handler, dynacut_restorer, orig_count,
/// orig_table, log_count, log_buf (log_capacity u64 slots).
std::shared_ptr<const melf::Binary> build_verifier_lib(size_t capacity,
                                                       size_t log_capacity);

/// Deny-stub library (ROADMAP item 3, trap-free cuts): `capacity` slot
/// records plus one tiny entry function per slot. A redirected callsite or
/// GOT slot branches straight into its `dynacut_stub_<i>`, which bumps the
/// slot's hit counter and then denies according to the host-written mode:
/// return `value` (kStubModeDenyRet), pop the call-pushed return address and
/// jump to `value` — the app's own error path (kStubModePopJmp), or tail-jump
/// there (kStubModeTailJmp). Fully PIC; clobbers only caller-saved r10/r11.
/// Exports: stub_count (host-managed allocation cursor), stub_slots,
/// dynacut_stub_<i>.
std::shared_ptr<const melf::Binary> build_stub_lib(size_t capacity);

/// One host<->guest table of an injected library: a u64 count symbol next
/// to an array of fixed-size records. The host appends records into a
/// frozen image (append_records) and reads guest-written tables back from
/// live memory (read_table). The count lives in guest memory, so it is
/// untrusted on both paths: it is only ever compared against the records
/// symbol's real capacity, never used to compute an address first.
struct GuestTable {
  const char* lib;          ///< injected library name
  const char* count_sym;    ///< u64 record count
  const char* records_sym;  ///< the record array
  size_t record_bytes;      ///< bytes per record
};

/// Redirect rows (trap addr, target addr), host-written.
inline constexpr GuestTable kRedirectTable{kSigLibName, "redirect_count",
                                           "redirect_table", 16};
/// Verifier rows (block addr, original first byte), host-written.
inline constexpr GuestTable kOrigTable{kVerifyLibName, "orig_count",
                                       "orig_table", 16};
/// Verifier heal log (healed addrs), guest-written.
inline constexpr GuestTable kHealLog{kVerifyLibName, "log_count", "log_buf",
                                     8};
/// Deny-stub slots: the host allocates them, the guest bumps word 0 (hits).
inline constexpr GuestTable kStubSlots{kStubLibName, "stub_count",
                                       "stub_slots", kStubSlotBytes};

/// Appends records to `t` in `img`, whose library must already be injected,
/// and returns the index of the first one. `words` holds `record_words` u64s
/// per record, written from the start of each record. Throws StateError
/// before writing anything when the stored count exceeds the capacity or
/// the records do not fit; otherwise writes the records, then the count.
uint64_t append_records(image::ProcessImage& img, const GuestTable& t,
                        std::span<const uint64_t> words, size_t record_words);

/// A guest table read back from live memory.
struct TableRead {
  std::vector<uint64_t> heads;  ///< word 0 of each counted record, in order
  uint64_t raw_count = 0;       ///< the guest-written count, unclamped
  uint64_t capacity = 0;        ///< records the table really holds
  bool clamped() const { return raw_count > capacity; }
};

/// Reads `t` from `p`'s live memory, with its count clamped to the
/// capacity so a scribbled count never drives an over-read. Returns an
/// empty read when the library is not injected.
TableRead read_table(const os::Process& p, const GuestTable& t);

}  // namespace dynacut::core
