// ProgramBuilder: the assembler DSL guest applications are written in.
//
// A builder collects functions (each a stream of VX64 instructions with
// function-local labels), data/rodata/bss definitions and imports, then
// links them into a relocatable MELF Binary:
//   * functions are packed into .text in definition order,
//   * every import gets a PLT stub (.plt) and a GOT slot (.got),
//   * symbolic references (call/jmp/lea across functions and to data)
//     become rel32 fixups, absolute references become kAbs64 relocations.
//
// Register conventions used by all guests in this repo:
//   r0    syscall number / return value
//   r1-r5 arguments
//   r6-r10 caller-saved temporaries
//   r11   scratch, clobbered by PLT stubs
//   r12-r14 callee-saved
//   r15   stack pointer
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "isa/encode.hpp"
#include "melf/binary.hpp"

namespace dynacut::melf {

class ProgramBuilder;

/// Builds one function's code. Obtained from ProgramBuilder::func().
class FunctionBuilder {
 public:
  // --- plain instructions (thin wrappers over isa::Encoder) -----------
  FunctionBuilder& mov_ri(int rd, uint64_t imm);
  FunctionBuilder& mov_rr(int rd, int rs);
  FunctionBuilder& load(int rd, int rb, int32_t disp);
  FunctionBuilder& store(int rb, int32_t disp, int rs);
  FunctionBuilder& loadb(int rd, int rb, int32_t disp);
  FunctionBuilder& storeb(int rb, int32_t disp, int rs);
  FunctionBuilder& add_rr(int rd, int rs);
  FunctionBuilder& add_ri(int rd, int32_t imm);
  FunctionBuilder& sub_rr(int rd, int rs);
  FunctionBuilder& sub_ri(int rd, int32_t imm);
  FunctionBuilder& mul_rr(int rd, int rs);
  FunctionBuilder& div_rr(int rd, int rs);
  FunctionBuilder& and_rr(int rd, int rs);
  FunctionBuilder& or_rr(int rd, int rs);
  FunctionBuilder& xor_rr(int rd, int rs);
  FunctionBuilder& shl_ri(int rd, uint8_t n);
  FunctionBuilder& shr_ri(int rd, uint8_t n);
  FunctionBuilder& cmp_rr(int ra, int rb);
  FunctionBuilder& cmp_ri(int ra, int32_t imm);
  FunctionBuilder& ret();
  FunctionBuilder& callr(int r);
  FunctionBuilder& jmpr(int r);
  FunctionBuilder& push(int r);
  FunctionBuilder& pop(int r);
  FunctionBuilder& syscall();
  FunctionBuilder& nop();
  FunctionBuilder& trap();

  // --- labels and function-local branches ------------------------------
  FunctionBuilder& label(std::string_view name);
  /// Exports the current position as a module-level (non-function) symbol —
  /// used to name error-handler entry points inside a dispatcher function.
  FunctionBuilder& mark(std::string_view symbol_name);
  FunctionBuilder& jmp(std::string_view label);
  FunctionBuilder& je(std::string_view label);
  FunctionBuilder& jne(std::string_view label);
  FunctionBuilder& jlt(std::string_view label);
  FunctionBuilder& jle(std::string_view label);
  FunctionBuilder& jgt(std::string_view label);
  FunctionBuilder& jge(std::string_view label);
  FunctionBuilder& jb(std::string_view label);
  FunctionBuilder& jae(std::string_view label);

  // --- symbolic references --------------------------------------------
  /// Direct call to another function in this module.
  FunctionBuilder& call(std::string_view func_name);
  /// Call an imported function through its PLT stub (clobbers r11).
  FunctionBuilder& call_import(std::string_view import_name);
  /// rd = address of a symbol in this module (IP-relative, PIC-safe).
  FunctionBuilder& lea_sym(int rd, std::string_view sym_name);
  /// rd = absolute address of a symbol (emits a kAbs64 relocation; not
  /// PIC-safe — applications only, never injected libraries).
  FunctionBuilder& mov_sym(int rd, std::string_view sym_name);

  // --- composite helpers ------------------------------------------------
  /// mov r0, number; syscall.
  FunctionBuilder& sys(uint64_t number);

  /// Current offset within this function (for tests and size accounting).
  size_t size() const { return code_.size(); }

  const std::string& name() const { return name_; }

 private:
  friend class ProgramBuilder;
  FunctionBuilder(ProgramBuilder* owner, std::string name);

  FunctionBuilder& branch_local(isa::Op op, std::string_view label);

  struct LocalFixup {
    size_t instr_offset;
    std::string label;
  };
  enum class SymFixupKind { kCallRel, kLeaRel, kMovAbs };
  struct SymFixup {
    size_t instr_offset;
    SymFixupKind kind;
    std::string symbol;  ///< function/data symbol or "import@plt"
  };

  ProgramBuilder* owner_;
  std::string name_;
  std::vector<uint8_t> code_;
  isa::Encoder enc_{code_};
  std::map<std::string, size_t, std::less<>> labels_;
  std::vector<std::pair<std::string, size_t>> marks_;
  std::vector<LocalFixup> local_fixups_;
  std::vector<SymFixup> sym_fixups_;
};

/// Assembles and links a whole MELF module.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string module_name);
  ~ProgramBuilder();

  ProgramBuilder(const ProgramBuilder&) = delete;
  ProgramBuilder& operator=(const ProgramBuilder&) = delete;

  /// Starts (or resumes) building the named function.
  FunctionBuilder& func(const std::string& name, bool global = true);

  /// Declares an import satisfied by another module at load time.
  void import(const std::string& name);

  // --- data definitions -------------------------------------------------
  void rodata(const std::string& name, std::vector<uint8_t> bytes);
  /// NUL-terminated string in .rodata.
  void rodata_str(const std::string& name, std::string_view text);
  void data(const std::string& name, std::vector<uint8_t> bytes);
  void data_u64(const std::string& name, uint64_t value);
  /// 8-byte slot in .data holding the absolute address of `target` (emits a
  /// kAbs64 relocation) — function-pointer tables etc.
  void data_ptr(const std::string& name, const std::string& target);
  void bss(const std::string& name, uint64_t size);

  void set_entry(const std::string& func_name);

  /// Lays out sections, resolves fixups, produces the final Binary.
  /// The builder must not be reused afterwards.
  Binary link();

 private:
  friend class FunctionBuilder;

  struct DataDef {
    std::string name;
    SectionKind section;
    std::vector<uint8_t> bytes;
    uint64_t size;
    std::vector<std::pair<uint64_t, std::string>> ptr_relocs;  // off, target
  };

  std::string module_name_;
  std::string entry_func_;
  std::vector<std::unique_ptr<FunctionBuilder>> funcs_;
  std::map<std::string, FunctionBuilder*> func_index_;
  std::vector<std::string> imports_;
  std::vector<DataDef> defs_;
  bool linked_ = false;
};

}  // namespace dynacut::melf
