// Unit and property tests for the VX64 ISA: encode/decode roundtrips,
// lengths, terminator classification, disassembly.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "isa/disasm.hpp"
#include "isa/encode.hpp"
#include "isa/isa.hpp"

namespace dynacut::isa {
namespace {

TEST(Isa, TrapIsOneByte0xCC) {
  // The entire DynaCut mechanism rests on this property (int3 analogue).
  EXPECT_EQ(static_cast<uint8_t>(Op::kTrap), 0xCC);
  EXPECT_EQ(instr_length(0xCC), 1);
  EXPECT_TRUE(is_terminator(Op::kTrap));
}

TEST(Isa, NopIsOneByte0x90) {
  EXPECT_EQ(static_cast<uint8_t>(Op::kNop), 0x90);
  EXPECT_EQ(instr_length(0x90), 1);
  EXPECT_FALSE(is_terminator(Op::kNop));
}

TEST(Isa, InvalidOpcodesRejected) {
  EXPECT_FALSE(valid_opcode(0x00));
  EXPECT_FALSE(valid_opcode(0xFF));
  EXPECT_EQ(instr_length(0x00), 0);
  uint8_t bad[4] = {0x00, 1, 2, 3};
  EXPECT_FALSE(try_decode(bad).has_value());
  EXPECT_THROW(decode(bad), DecodeError);
}

TEST(Isa, DecodeEmptySpanFails) {
  EXPECT_FALSE(try_decode({}).has_value());
  EXPECT_THROW(decode({}), DecodeError);
}

TEST(Isa, TruncatedEncodingFails) {
  std::vector<uint8_t> code;
  Encoder enc(code);
  enc.mov_ri(3, 0x1122334455667788ULL);
  ASSERT_EQ(code.size(), 10u);
  EXPECT_FALSE(try_decode({code.data(), 9}).has_value());  // cut last byte
  EXPECT_TRUE(try_decode({code.data(), 10}).has_value());
}

TEST(Isa, MovRiRoundtrip) {
  std::vector<uint8_t> code;
  Encoder enc(code);
  enc.mov_ri(7, 0xdeadbeefcafef00dULL);
  Instr ins = decode(code);
  EXPECT_EQ(ins.op, Op::kMovRI);
  EXPECT_EQ(ins.r1, 7);
  EXPECT_EQ(static_cast<uint64_t>(ins.imm), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(ins.length, 10);
}

TEST(Isa, LoadStoreRoundtrip) {
  std::vector<uint8_t> code;
  Encoder enc(code);
  enc.load(2, 5, -16);
  enc.store(5, 24, 3);
  Instr load = decode(code);
  EXPECT_EQ(load.op, Op::kLoad);
  EXPECT_EQ(load.r1, 2);
  EXPECT_EQ(load.r2, 5);
  EXPECT_EQ(load.imm, -16);
  Instr store = decode(std::span(code).subspan(load.length));
  EXPECT_EQ(store.op, Op::kStore);
  EXPECT_EQ(store.r1, 5);  // base register
  EXPECT_EQ(store.r2, 3);  // source register
  EXPECT_EQ(store.imm, 24);
}

TEST(Isa, BranchTargetComputation) {
  std::vector<uint8_t> code;
  Encoder enc(code);
  enc.branch(Op::kJne, -32);
  Instr ins = decode(code);
  // target = addr + length + rel
  EXPECT_EQ(ins.target(0x1000), 0x1000u + 5 - 32);
}

TEST(Isa, PatchRel32) {
  std::vector<uint8_t> code;
  Encoder enc(code);
  size_t at = enc.branch(Op::kJmp, 0);
  enc.patch_rel32(at, 123);
  EXPECT_EQ(decode(code).imm, 123);

  size_t lea_at = enc.lea(4, 0);
  enc.patch_rel32(lea_at, -9);
  Instr lea = decode(std::span(code).subspan(5));
  EXPECT_EQ(lea.imm, -9);

  size_t nop_at = enc.nop();
  EXPECT_THROW(enc.patch_rel32(nop_at, 1), StateError);
}

TEST(Isa, TerminatorClassification) {
  EXPECT_TRUE(is_terminator(Op::kJmp));
  EXPECT_TRUE(is_terminator(Op::kCall));
  EXPECT_TRUE(is_terminator(Op::kRet));
  EXPECT_TRUE(is_terminator(Op::kSyscall));
  EXPECT_TRUE(is_terminator(Op::kCallR));
  EXPECT_TRUE(is_terminator(Op::kJmpR));
  EXPECT_FALSE(is_terminator(Op::kMovRI));
  EXPECT_FALSE(is_terminator(Op::kCmpRR));
  EXPECT_FALSE(is_terminator(Op::kLea));
}

TEST(Isa, CondBranchClassification) {
  EXPECT_TRUE(is_cond_branch(Op::kJe));
  EXPECT_TRUE(is_cond_branch(Op::kJae));
  EXPECT_FALSE(is_cond_branch(Op::kJmp));
  EXPECT_FALSE(is_cond_branch(Op::kCall));
}

TEST(Isa, DirectTransferClassification) {
  EXPECT_TRUE(is_direct_transfer(Op::kJmp));
  EXPECT_TRUE(is_direct_transfer(Op::kCall));
  EXPECT_TRUE(is_direct_transfer(Op::kJle));
  EXPECT_FALSE(is_direct_transfer(Op::kCallR));
  EXPECT_FALSE(is_direct_transfer(Op::kRet));
}

// Property sweep: every opcode encodes to its table length and decodes back
// to the same opcode.
class OpcodeRoundtrip : public ::testing::TestWithParam<uint8_t> {};

TEST_P(OpcodeRoundtrip, LengthAndOpcodeAgree) {
  uint8_t byte = GetParam();
  ASSERT_TRUE(valid_opcode(byte));
  std::vector<uint8_t> code(instr_length(byte), 0);
  code[0] = byte;
  auto ins = try_decode(code);
  ASSERT_TRUE(ins.has_value());
  EXPECT_EQ(static_cast<uint8_t>(ins->op), byte);
  EXPECT_EQ(ins->length, code.size());
  // One byte short must fail for every multi-byte instruction.
  if (code.size() > 1) {
    EXPECT_FALSE(try_decode({code.data(), code.size() - 1}).has_value());
  }
}

// One instance per VX64_OPS row.
std::vector<uint8_t> assigned_opcodes() {
  return {
#define ISA_TEST_BYTE(name, byte, ...) byte,
      VX64_OPS(ISA_TEST_BYTE)
#undef ISA_TEST_BYTE
  };
}

INSTANTIATE_TEST_SUITE_P(AllOpcodeBytes, OpcodeRoundtrip,
                         ::testing::ValuesIn(assigned_opcodes()));

// Every byte 0x00..0xFF: exactly the table's bytes decode.
TEST(Isa, UnassignedBytesRejected) {
  const std::vector<uint8_t> assigned = assigned_opcodes();
  size_t valid = 0;
  for (int b = 0; b <= 0xFF; ++b) {
    const uint8_t byte = static_cast<uint8_t>(b);
    const bool in_table = std::count(assigned.begin(), assigned.end(), byte);
    EXPECT_EQ(valid_opcode(byte), in_table) << b;
    if (in_table) {
      ++valid;
      continue;
    }
    EXPECT_EQ(instr_length(byte), 0) << b;
    std::vector<uint8_t> code(kMaxInstrLength, 0);
    code[0] = byte;
    EXPECT_FALSE(try_decode(code).has_value()) << b;
  }
  EXPECT_EQ(valid, assigned.size());
}

TEST(Disasm, FormatsCommonInstructions) {
  std::vector<uint8_t> code;
  Encoder enc(code);
  enc.mov_ri(1, 0x2a);
  enc.cmp_rr(1, 2);
  enc.branch(Op::kJne, -14);
  enc.trap();
  std::string text = disassemble_text(code, 0x400000);
  EXPECT_NE(text.find("mov r1, 0x2a"), std::string::npos);
  EXPECT_NE(text.find("cmp r1, r2"), std::string::npos);
  EXPECT_NE(text.find("jne"), std::string::npos);
  EXPECT_NE(text.find("trap"), std::string::npos);
}

TEST(Disasm, SpNameUsedForR15) {
  std::vector<uint8_t> code;
  Encoder enc(code);
  enc.push(15);
  std::string text = disassemble_text(code, 0);
  EXPECT_NE(text.find("push sp"), std::string::npos);
}

TEST(Disasm, InvalidBytesBecomeByteLines) {
  std::vector<uint8_t> code{0x00, 0x90};
  auto lines = disassemble(code, 0x100);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_FALSE(lines[0].valid);
  EXPECT_EQ(lines[0].raw_byte, 0x00);
  EXPECT_TRUE(lines[1].valid);
  EXPECT_EQ(lines[1].instr.op, Op::kNop);
  std::string text = disassemble_text(code, 0x100);
  EXPECT_NE(text.find(".byte 0x00"), std::string::npos);
}

TEST(Disasm, SweepCoversAllBytes) {
  // Linear sweep must consume exactly the input length.
  std::vector<uint8_t> code;
  Encoder enc(code);
  enc.mov_ri(0, 1);
  enc.add_ri(0, 2);
  enc.ret();
  auto lines = disassemble(code, 0);
  uint64_t covered = 0;
  for (const auto& l : lines) covered += l.valid ? l.instr.length : 1;
  EXPECT_EQ(covered, code.size());
}

}  // namespace
}  // namespace dynacut::isa
