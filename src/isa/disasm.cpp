#include "isa/disasm.hpp"

#include <cstdio>

#include "common/hex.hpp"

namespace dynacut::isa {

namespace {
std::string reg_name(uint8_t r) {
  if (r == kSpReg) return "sp";
  // Built by appending: GCC 12 flags `"r" + std::to_string(r)` with a
  // -Wrestrict false positive.
  std::string name = "r";
  name += std::to_string(r);
  return name;
}

std::string mem_operand(uint8_t base, int64_t disp) {
  std::string s = "[";  // appended, for the same GCC 12 -Wrestrict reason
  s += reg_name(base);
  s += disp >= 0 ? "+" : "";
  s += std::to_string(disp);
  s += "]";
  return s;
}
}  // namespace

std::string format_instr(const Instr& ins, uint64_t addr) {
  const std::string m = mnemonic(ins.op);
  switch (op_info(ins.op).format) {
    case Format::kNone:
      return m;
    case Format::kReg:
      return m + " " + reg_name(ins.r1);
    case Format::kRegReg:
      return m + " " + reg_name(ins.r1) + ", " + reg_name(ins.r2);
    case Format::kRegImm8:
    case Format::kRegImm32:
      return m + " " + reg_name(ins.r1) + ", " + std::to_string(ins.imm);
    case Format::kRegImm64:
      return m + " " + reg_name(ins.r1) + ", " +
             hex_addr(static_cast<uint64_t>(ins.imm));
    case Format::kRegRel32:
      return m + " " + reg_name(ins.r1) + ", " + hex_addr(ins.target(addr));
    case Format::kRegMem:
      return m + " " + reg_name(ins.r1) + ", " + mem_operand(ins.r2, ins.imm);
    case Format::kMemReg:
      return m + " " + mem_operand(ins.r1, ins.imm) + ", " + reg_name(ins.r2);
    case Format::kRel32:
      return m + " " + hex_addr(ins.target(addr));
  }
  return "(bad)";
}

std::vector<DisasmLine> disassemble(std::span<const uint8_t> code,
                                    uint64_t base) {
  std::vector<DisasmLine> lines;
  size_t pos = 0;
  while (pos < code.size()) {
    DisasmLine line;
    line.addr = base + pos;
    if (auto ins = try_decode(code.subspan(pos))) {
      line.instr = *ins;
      pos += ins->length;
    } else {
      line.valid = false;
      line.raw_byte = code[pos];
      pos += 1;
    }
    lines.push_back(line);
  }
  return lines;
}

std::string disassemble_text(std::span<const uint8_t> code, uint64_t base) {
  std::string out;
  char buf[32];
  for (const auto& line : disassemble(code, base)) {
    std::snprintf(buf, sizeof buf, "%12llx:  ",
                  static_cast<unsigned long long>(line.addr));
    out += buf;
    if (line.valid) {
      out += format_instr(line.instr, line.addr);
    } else {
      std::snprintf(buf, sizeof buf, ".byte 0x%02x", line.raw_byte);
      out += buf;
    }
    out.push_back('\n');
  }
  return out;
}

}  // namespace dynacut::isa
