#include "isa/encode.hpp"

#include <cstring>

#include "common/error.hpp"

namespace dynacut::isa {

namespace {
uint8_t reg(int r) {
  DYNACUT_ASSERT(r >= 0 && r < kNumRegs);
  return static_cast<uint8_t>(r);
}
}  // namespace

void Encoder::put_i32(int32_t v) {
  uint8_t buf[4];
  std::memcpy(buf, &v, 4);
  out_.insert(out_.end(), buf, buf + 4);
}

size_t Encoder::op0(Op op) {
  size_t at = out_.size();
  out_.push_back(static_cast<uint8_t>(op));
  return at;
}

size_t Encoder::op1(Op op, int r) {
  size_t at = op0(op);
  out_.push_back(reg(r));
  return at;
}

size_t Encoder::op2(Op op, int r1, int r2) {
  size_t at = op1(op, r1);
  out_.push_back(reg(r2));
  return at;
}

size_t Encoder::op_ri32(Op op, int r, int32_t imm) {
  size_t at = op1(op, r);
  put_i32(imm);
  return at;
}

size_t Encoder::op_mem(Op op, int r1, int r2, int32_t disp) {
  size_t at = op2(op, r1, r2);
  put_i32(disp);
  return at;
}

size_t Encoder::mov_ri(int rd, uint64_t imm) {
  size_t at = op1(Op::kMovRI, rd);
  uint8_t buf[8];
  std::memcpy(buf, &imm, 8);
  out_.insert(out_.end(), buf, buf + 8);
  return at;
}

size_t Encoder::mov_rr(int rd, int rs) { return op2(Op::kMovRR, rd, rs); }
size_t Encoder::load(int rd, int rb, int32_t d) {
  return op_mem(Op::kLoad, rd, rb, d);
}
size_t Encoder::store(int rb, int32_t d, int rs) {
  return op_mem(Op::kStore, rb, rs, d);
}
size_t Encoder::loadb(int rd, int rb, int32_t d) {
  return op_mem(Op::kLoadB, rd, rb, d);
}
size_t Encoder::storeb(int rb, int32_t d, int rs) {
  return op_mem(Op::kStoreB, rb, rs, d);
}
size_t Encoder::add_rr(int rd, int rs) { return op2(Op::kAddRR, rd, rs); }
size_t Encoder::add_ri(int rd, int32_t imm) {
  return op_ri32(Op::kAddRI, rd, imm);
}
size_t Encoder::sub_rr(int rd, int rs) { return op2(Op::kSubRR, rd, rs); }
size_t Encoder::sub_ri(int rd, int32_t imm) {
  return op_ri32(Op::kSubRI, rd, imm);
}
size_t Encoder::mul_rr(int rd, int rs) { return op2(Op::kMulRR, rd, rs); }
size_t Encoder::div_rr(int rd, int rs) { return op2(Op::kDivRR, rd, rs); }
size_t Encoder::and_rr(int rd, int rs) { return op2(Op::kAndRR, rd, rs); }
size_t Encoder::or_rr(int rd, int rs) { return op2(Op::kOrRR, rd, rs); }
size_t Encoder::xor_rr(int rd, int rs) { return op2(Op::kXorRR, rd, rs); }

size_t Encoder::shl_ri(int rd, uint8_t amount) {
  size_t at = op1(Op::kShlRI, rd);
  out_.push_back(amount);
  return at;
}

size_t Encoder::shr_ri(int rd, uint8_t amount) {
  size_t at = op1(Op::kShrRI, rd);
  out_.push_back(amount);
  return at;
}

size_t Encoder::cmp_rr(int ra, int rb) { return op2(Op::kCmpRR, ra, rb); }
size_t Encoder::cmp_ri(int ra, int32_t imm) {
  return op_ri32(Op::kCmpRI, ra, imm);
}

size_t Encoder::branch(Op op, int32_t rel) {
  DYNACUT_ASSERT(is_direct_transfer(op));
  size_t at = op0(op);
  put_i32(rel);
  return at;
}

size_t Encoder::ret() { return op0(Op::kRet); }
size_t Encoder::callr(int r) { return op1(Op::kCallR, r); }
size_t Encoder::jmpr(int r) { return op1(Op::kJmpR, r); }
size_t Encoder::push(int r) { return op1(Op::kPush, r); }
size_t Encoder::pop(int r) { return op1(Op::kPop, r); }
size_t Encoder::syscall() { return op0(Op::kSyscall); }
size_t Encoder::lea(int rd, int32_t rel) { return op_ri32(Op::kLea, rd, rel); }
size_t Encoder::nop() { return op0(Op::kNop); }
size_t Encoder::trap() { return op0(Op::kTrap); }

void Encoder::patch_rel32(size_t instr_offset, int32_t rel) {
  DYNACUT_ASSERT(instr_offset < out_.size());
  const Format f = op_info(static_cast<Op>(out_[instr_offset])).format;
  if (f != Format::kRel32 && f != Format::kRegRel32) {
    throw StateError("patch_rel32 on non-relative instruction");
  }
  const size_t field = instr_offset + format_length(f) - 4;  // last field
  DYNACUT_ASSERT(field + 4 <= out_.size());
  std::memcpy(out_.data() + field, &rel, 4);
}

}  // namespace dynacut::isa
