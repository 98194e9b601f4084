#include "melf/builder.hpp"

#include <cstring>

#include "common/error.hpp"

namespace dynacut::melf {

namespace {

constexpr uint64_t kFuncAlign = 16;

uint64_t align_up(uint64_t v, uint64_t a) { return (v + a - 1) & ~(a - 1); }

void write_i32_at(std::vector<uint8_t>& buf, size_t pos, int32_t v) {
  DYNACUT_ASSERT(pos + 4 <= buf.size());
  std::memcpy(buf.data() + pos, &v, 4);
}

}  // namespace

// --------------------------------------------------------------------------
// FunctionBuilder
// --------------------------------------------------------------------------

FunctionBuilder::FunctionBuilder(ProgramBuilder* owner, std::string name)
    : owner_(owner), name_(std::move(name)) {}

FunctionBuilder& FunctionBuilder::mov_ri(int rd, uint64_t imm) {
  enc_.mov_ri(rd, imm);
  return *this;
}
FunctionBuilder& FunctionBuilder::mov_rr(int rd, int rs) {
  enc_.mov_rr(rd, rs);
  return *this;
}
FunctionBuilder& FunctionBuilder::load(int rd, int rb, int32_t disp) {
  enc_.load(rd, rb, disp);
  return *this;
}
FunctionBuilder& FunctionBuilder::store(int rb, int32_t disp, int rs) {
  enc_.store(rb, disp, rs);
  return *this;
}
FunctionBuilder& FunctionBuilder::loadb(int rd, int rb, int32_t disp) {
  enc_.loadb(rd, rb, disp);
  return *this;
}
FunctionBuilder& FunctionBuilder::storeb(int rb, int32_t disp, int rs) {
  enc_.storeb(rb, disp, rs);
  return *this;
}
FunctionBuilder& FunctionBuilder::add_rr(int rd, int rs) {
  enc_.add_rr(rd, rs);
  return *this;
}
FunctionBuilder& FunctionBuilder::add_ri(int rd, int32_t imm) {
  enc_.add_ri(rd, imm);
  return *this;
}
FunctionBuilder& FunctionBuilder::sub_rr(int rd, int rs) {
  enc_.sub_rr(rd, rs);
  return *this;
}
FunctionBuilder& FunctionBuilder::sub_ri(int rd, int32_t imm) {
  enc_.sub_ri(rd, imm);
  return *this;
}
FunctionBuilder& FunctionBuilder::mul_rr(int rd, int rs) {
  enc_.mul_rr(rd, rs);
  return *this;
}
FunctionBuilder& FunctionBuilder::div_rr(int rd, int rs) {
  enc_.div_rr(rd, rs);
  return *this;
}
FunctionBuilder& FunctionBuilder::and_rr(int rd, int rs) {
  enc_.and_rr(rd, rs);
  return *this;
}
FunctionBuilder& FunctionBuilder::or_rr(int rd, int rs) {
  enc_.or_rr(rd, rs);
  return *this;
}
FunctionBuilder& FunctionBuilder::xor_rr(int rd, int rs) {
  enc_.xor_rr(rd, rs);
  return *this;
}
FunctionBuilder& FunctionBuilder::shl_ri(int rd, uint8_t n) {
  enc_.shl_ri(rd, n);
  return *this;
}
FunctionBuilder& FunctionBuilder::shr_ri(int rd, uint8_t n) {
  enc_.shr_ri(rd, n);
  return *this;
}
FunctionBuilder& FunctionBuilder::cmp_rr(int ra, int rb) {
  enc_.cmp_rr(ra, rb);
  return *this;
}
FunctionBuilder& FunctionBuilder::cmp_ri(int ra, int32_t imm) {
  enc_.cmp_ri(ra, imm);
  return *this;
}
FunctionBuilder& FunctionBuilder::ret() {
  enc_.ret();
  return *this;
}
FunctionBuilder& FunctionBuilder::callr(int r) {
  enc_.callr(r);
  return *this;
}
FunctionBuilder& FunctionBuilder::jmpr(int r) {
  enc_.jmpr(r);
  return *this;
}
FunctionBuilder& FunctionBuilder::push(int r) {
  enc_.push(r);
  return *this;
}
FunctionBuilder& FunctionBuilder::pop(int r) {
  enc_.pop(r);
  return *this;
}
FunctionBuilder& FunctionBuilder::syscall() {
  enc_.syscall();
  return *this;
}
FunctionBuilder& FunctionBuilder::nop() {
  enc_.nop();
  return *this;
}
FunctionBuilder& FunctionBuilder::trap() {
  enc_.trap();
  return *this;
}

FunctionBuilder& FunctionBuilder::label(std::string_view name) {
  auto [it, inserted] = labels_.emplace(std::string(name), code_.size());
  if (!inserted) {
    throw GuestError("duplicate label '" + std::string(name) +
                     "' in function " + name_);
  }
  return *this;
}

FunctionBuilder& FunctionBuilder::mark(std::string_view symbol_name) {
  marks_.emplace_back(std::string(symbol_name), code_.size());
  return *this;
}

FunctionBuilder& FunctionBuilder::branch_local(isa::Op op,
                                               std::string_view label) {
  size_t at = enc_.branch(op, 0);
  local_fixups_.push_back({at, std::string(label)});
  return *this;
}

FunctionBuilder& FunctionBuilder::jmp(std::string_view l) {
  return branch_local(isa::Op::kJmp, l);
}
FunctionBuilder& FunctionBuilder::je(std::string_view l) {
  return branch_local(isa::Op::kJe, l);
}
FunctionBuilder& FunctionBuilder::jne(std::string_view l) {
  return branch_local(isa::Op::kJne, l);
}
FunctionBuilder& FunctionBuilder::jlt(std::string_view l) {
  return branch_local(isa::Op::kJlt, l);
}
FunctionBuilder& FunctionBuilder::jle(std::string_view l) {
  return branch_local(isa::Op::kJle, l);
}
FunctionBuilder& FunctionBuilder::jgt(std::string_view l) {
  return branch_local(isa::Op::kJgt, l);
}
FunctionBuilder& FunctionBuilder::jge(std::string_view l) {
  return branch_local(isa::Op::kJge, l);
}
FunctionBuilder& FunctionBuilder::jb(std::string_view l) {
  return branch_local(isa::Op::kJb, l);
}
FunctionBuilder& FunctionBuilder::jae(std::string_view l) {
  return branch_local(isa::Op::kJae, l);
}

FunctionBuilder& FunctionBuilder::call(std::string_view func_name) {
  size_t at = enc_.branch(isa::Op::kCall, 0);
  sym_fixups_.push_back({at, SymFixupKind::kCallRel, std::string(func_name)});
  return *this;
}

FunctionBuilder& FunctionBuilder::call_import(std::string_view import_name) {
  owner_->import(std::string(import_name));
  size_t at = enc_.branch(isa::Op::kCall, 0);
  sym_fixups_.push_back(
      {at, SymFixupKind::kCallRel, std::string(import_name) + "@plt"});
  return *this;
}

FunctionBuilder& FunctionBuilder::lea_sym(int rd, std::string_view sym_name) {
  size_t at = enc_.lea(rd, 0);
  sym_fixups_.push_back({at, SymFixupKind::kLeaRel, std::string(sym_name)});
  return *this;
}

FunctionBuilder& FunctionBuilder::mov_sym(int rd, std::string_view sym_name) {
  size_t at = enc_.mov_ri(rd, 0);
  sym_fixups_.push_back({at, SymFixupKind::kMovAbs, std::string(sym_name)});
  return *this;
}

FunctionBuilder& FunctionBuilder::sys(uint64_t number) {
  enc_.mov_ri(0, number);
  enc_.syscall();
  return *this;
}

// --------------------------------------------------------------------------
// ProgramBuilder
// --------------------------------------------------------------------------

ProgramBuilder::ProgramBuilder(std::string module_name)
    : module_name_(std::move(module_name)) {}

ProgramBuilder::~ProgramBuilder() = default;

FunctionBuilder& ProgramBuilder::func(const std::string& name, bool global) {
  (void)global;  // all function symbols are emitted; `global` is advisory
  auto it = func_index_.find(name);
  if (it != func_index_.end()) return *it->second;
  funcs_.push_back(
      std::unique_ptr<FunctionBuilder>(new FunctionBuilder(this, name)));
  func_index_[name] = funcs_.back().get();
  return *funcs_.back();
}

void ProgramBuilder::import(const std::string& name) {
  for (const auto& i : imports_) {
    if (i == name) return;
  }
  imports_.push_back(name);
}

void ProgramBuilder::rodata(const std::string& name,
                            std::vector<uint8_t> bytes) {
  uint64_t size = bytes.size();
  defs_.push_back({name, SectionKind::kRodata, std::move(bytes), size, {}});
}

void ProgramBuilder::rodata_str(const std::string& name,
                                std::string_view text) {
  std::vector<uint8_t> bytes(text.begin(), text.end());
  bytes.push_back(0);
  rodata(name, std::move(bytes));
}

void ProgramBuilder::data(const std::string& name, std::vector<uint8_t> bytes) {
  uint64_t size = bytes.size();
  defs_.push_back({name, SectionKind::kData, std::move(bytes), size, {}});
}

void ProgramBuilder::data_u64(const std::string& name, uint64_t value) {
  std::vector<uint8_t> bytes(8);
  std::memcpy(bytes.data(), &value, 8);
  data(name, std::move(bytes));
}

void ProgramBuilder::data_ptr(const std::string& name,
                              const std::string& target) {
  DataDef def{name, SectionKind::kData, std::vector<uint8_t>(8, 0), 8, {}};
  def.ptr_relocs.emplace_back(0, target);
  defs_.push_back(std::move(def));
}

void ProgramBuilder::bss(const std::string& name, uint64_t size) {
  defs_.push_back({name, SectionKind::kBss, {}, size, {}});
}

void ProgramBuilder::set_entry(const std::string& func_name) {
  entry_func_ = func_name;
}

Binary ProgramBuilder::link() {
  if (linked_) throw StateError("ProgramBuilder::link called twice");
  linked_ = true;

  Binary bin;
  bin.name = module_name_;
  bin.imports = imports_;

  // 1. Resolve function-local label fixups.
  for (auto& f : funcs_) {
    for (const auto& fix : f->local_fixups_) {
      auto it = f->labels_.find(fix.label);
      if (it == f->labels_.end()) {
        throw GuestError("unresolved label '" + fix.label + "' in function " +
                         f->name_);
      }
      uint8_t len = isa::instr_length(f->code_[fix.instr_offset]);
      int64_t rel = static_cast<int64_t>(it->second) -
                    static_cast<int64_t>(fix.instr_offset + len);
      write_i32_at(f->code_, fix.instr_offset + 1,
                   static_cast<int32_t>(rel));
    }
  }

  // 2. Lay out .text: pack functions with 16-byte alignment.
  std::map<std::string, uint64_t> sym_off;  // symbol -> module offset
  Section text;
  text.kind = SectionKind::kText;
  text.offset = 0;
  for (auto& f : funcs_) {
    uint64_t at = align_up(text.bytes.size(), kFuncAlign);
    text.bytes.resize(at, static_cast<uint8_t>(isa::Op::kNop));
    text.bytes.insert(text.bytes.end(), f->code_.begin(), f->code_.end());
    if (sym_off.count(f->name_)) {
      throw GuestError("duplicate symbol " + f->name_);
    }
    sym_off[f->name_] = at;
    Symbol sym;
    sym.name = f->name_;
    sym.section = SectionKind::kText;
    sym.value = at;
    sym.size = f->code_.size();
    sym.global = true;
    sym.is_function = true;
    bin.symbols.push_back(sym);
    for (const auto& [mark_name, mark_off] : f->marks_) {
      if (sym_off.count(mark_name)) {
        throw GuestError("duplicate symbol " + mark_name);
      }
      sym_off[mark_name] = at + mark_off;
      Symbol ms;
      ms.name = mark_name;
      ms.section = SectionKind::kText;
      ms.value = at + mark_off;
      ms.size = 0;
      ms.global = true;
      ms.is_function = false;
      bin.symbols.push_back(ms);
    }
  }
  text.size = text.bytes.size();

  // 3. .plt: one 15-byte stub per import (lea r11, got; load; jmpr).
  Section plt;
  plt.kind = SectionKind::kPlt;
  plt.offset = page_ceil(text.offset + text.size);

  // 4. .rodata / .data / .got / .bss layout.
  auto layout_defs = [&](SectionKind kind, uint64_t start, Section& sec) {
    sec.kind = kind;
    sec.offset = start;
    uint64_t cursor = 0;
    for (auto& def : defs_) {
      if (def.section != kind) continue;
      cursor = align_up(cursor, 8);
      if (sym_off.count(def.name)) {
        throw GuestError("duplicate symbol " + def.name);
      }
      sym_off[def.name] = start + cursor;
      Symbol sym;
      sym.name = def.name;
      sym.section = kind;
      sym.value = start + cursor;
      sym.size = def.size;
      sym.global = true;
      sym.is_function = false;
      bin.symbols.push_back(sym);
      if (kind != SectionKind::kBss) {
        sec.bytes.resize(cursor, 0);
        sec.bytes.insert(sec.bytes.end(), def.bytes.begin(), def.bytes.end());
        for (const auto& [off, target] : def.ptr_relocs) {
          Relocation rel;
          rel.kind = RelocKind::kAbs64;
          rel.offset = start + cursor + off;
          // addend resolved in step 6 once all symbols are placed.
          rel.symbol = target;
          bin.relocs.push_back(rel);
        }
      }
      cursor += def.size;
    }
    sec.size = cursor;
  };

  uint64_t plt_size = imports_.size() * Binary::kPltStubSize;
  Section rodata, data_sec, got, bss;
  layout_defs(SectionKind::kRodata, page_ceil(plt.offset + plt_size), rodata);
  layout_defs(SectionKind::kData, page_ceil(rodata.offset + rodata.size),
              data_sec);
  got.kind = SectionKind::kGot;
  got.offset = page_ceil(data_sec.offset + data_sec.size);
  got.size = imports_.size() * 8;
  got.bytes.assign(got.size, 0);
  layout_defs(SectionKind::kBss, page_ceil(got.offset + got.size), bss);

  // PLT symbols and stub bytes (needs got.offset, hence after layout).
  {
    isa::Encoder enc(plt.bytes);
    for (size_t i = 0; i < imports_.size(); ++i) {
      uint64_t stub_off = plt.offset + i * Binary::kPltStubSize;
      uint64_t slot_off = got.offset + i * 8;
      // lea r11, rel32(got_slot); load r11, [r11+0]; jmpr r11
      enc.lea(11, static_cast<int32_t>(static_cast<int64_t>(slot_off) -
                                       static_cast<int64_t>(stub_off + 6)));
      enc.load(11, 11, 0);
      enc.jmpr(11);
      sym_off[imports_[i] + "@plt"] = stub_off;
      Symbol sym;
      sym.name = imports_[i] + "@plt";
      sym.section = SectionKind::kPlt;
      sym.value = stub_off;
      sym.size = Binary::kPltStubSize;
      sym.global = false;
      sym.is_function = true;
      bin.symbols.push_back(sym);

      Relocation rel;
      rel.kind = RelocKind::kGotEntry;
      rel.offset = slot_off;
      rel.symbol = imports_[i];
      bin.relocs.push_back(rel);
    }
    plt.size = plt.bytes.size();
    DYNACUT_ASSERT(plt.size == plt_size);
  }

  // 5. Resolve symbolic code fixups now that every symbol has an offset.
  auto resolve = [&](const std::string& name) -> uint64_t {
    auto it = sym_off.find(name);
    if (it == sym_off.end()) {
      throw GuestError("unresolved symbol '" + name + "' in module " +
                       module_name_);
    }
    return it->second;
  };

  for (auto& f : funcs_) {
    uint64_t func_off = sym_off.at(f->name_);
    for (const auto& fix : f->sym_fixups_) {
      uint64_t instr_off = func_off + fix.instr_offset;
      uint64_t target = resolve(fix.symbol);
      switch (fix.kind) {
        case FunctionBuilder::SymFixupKind::kCallRel: {
          int64_t rel = static_cast<int64_t>(target) -
                        static_cast<int64_t>(instr_off + 5);
          write_i32_at(text.bytes, instr_off + 1, static_cast<int32_t>(rel));
          break;
        }
        case FunctionBuilder::SymFixupKind::kLeaRel: {
          int64_t rel = static_cast<int64_t>(target) -
                        static_cast<int64_t>(instr_off + 6);
          write_i32_at(text.bytes, instr_off + 2, static_cast<int32_t>(rel));
          break;
        }
        case FunctionBuilder::SymFixupKind::kMovAbs: {
          Relocation rel;
          rel.kind = RelocKind::kAbs64;
          rel.offset = instr_off + 2;  // imm64 field of kMovRI
          rel.addend = static_cast<int64_t>(target);
          bin.relocs.push_back(rel);
          break;
        }
      }
    }
  }

  // 6. Fill in addends for data_ptr relocations (symbol-relative kAbs64).
  for (auto& rel : bin.relocs) {
    if (rel.kind == RelocKind::kAbs64 && !rel.symbol.empty()) {
      rel.addend = static_cast<int64_t>(resolve(rel.symbol));
      rel.symbol.clear();
    }
  }

  bin.sections = {std::move(text),     std::move(plt), std::move(rodata),
                  std::move(data_sec), std::move(got), std::move(bss)};

  if (!entry_func_.empty()) bin.entry = resolve(entry_func_);
  return bin;
}

}  // namespace dynacut::melf
