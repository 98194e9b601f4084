#include "isa/isa.hpp"

#include <cstring>

#include "common/error.hpp"

namespace dynacut::isa {

namespace {

template <class T>
int64_t read_le(std::span<const uint8_t> p) {
  T v;
  std::memcpy(&v, p.data(), sizeof v);
  return v;
}

}  // namespace

std::optional<int64_t> sp_delta(const Instr& ins) {
  const bool on_sp = ins.r1 == kSpReg;
  if (op_class(ins.op) == OpClass::kPush) return -8;
  if (op_class(ins.op) == OpClass::kPop) {
    return on_sp ? std::nullopt : std::optional<int64_t>(8);
  }
  if (on_sp && ins.op == Op::kAddRI) return ins.imm;
  if (on_sp && ins.op == Op::kSubRI) return -ins.imm;
  if ((defs(ins) & (1u << kSpReg)) != 0) return std::nullopt;
  return 0;
}

std::optional<Instr> try_decode(std::span<const uint8_t> code) {
  if (code.empty()) return std::nullopt;
  const OpInfo& info = kOpTable[code[0]];
  if (info.length == 0 || code.size() < info.length) return std::nullopt;

  Instr ins;
  ins.op = static_cast<Op>(code[0]);
  ins.length = info.length;
  if (info.format != Format::kNone && info.format != Format::kRel32) {
    ins.r1 = code[1] & 0x0f;
  }
  switch (info.format) {
    case Format::kNone:
    case Format::kReg:
      break;
    case Format::kRegReg:
      ins.r2 = code[2] & 0x0f;
      break;
    case Format::kRegImm8:
      ins.imm = code[2];
      break;
    case Format::kRegImm32:
    case Format::kRegRel32:
      ins.imm = read_le<int32_t>(code.subspan(2));
      break;
    case Format::kRegImm64:
      ins.imm = read_le<int64_t>(code.subspan(2));
      break;
    case Format::kRegMem:
    case Format::kMemReg:
      ins.r2 = code[2] & 0x0f;
      ins.imm = read_le<int32_t>(code.subspan(3));
      break;
    case Format::kRel32:
      ins.imm = read_le<int32_t>(code.subspan(1));
      break;
  }
  return ins;
}

Instr decode(std::span<const uint8_t> code) {
  auto ins = try_decode(code);
  if (!ins) {
    throw DecodeError(code.empty() ? "empty code span"
                                   : "invalid or truncated instruction, "
                                     "opcode byte " +
                                         std::to_string(code[0]));
  }
  return *ins;
}

std::string mnemonic(Op op) {
  const char* name = op_info(op).mnemonic;
  return name ? name : "(bad)";
}

}  // namespace dynacut::isa
