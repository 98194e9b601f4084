#include "analysis/slicer/dataflow.hpp"

#include <algorithm>
#include <deque>
#include <optional>

#include "vm/ops.hpp"

namespace dynacut::analysis::slicer {
namespace {

using isa::Op;

uint16_t bit(int reg) { return static_cast<uint16_t>(1u << reg); }

/// Immutable per-module context shared by both analyses.
struct ModCtx {
  const melf::Binary& bin;
  const StaticCfg& cfg;
  std::map<uint64_t, int64_t> abs_relocs;  ///< offset -> addend (kAbs64)
  uint64_t got_begin = 0, got_end = 0;
  std::vector<std::pair<uint64_t, uint64_t>> data_extents;  // rodata+data

  explicit ModCtx(const melf::Binary& b, const StaticCfg& c)
      : bin(b), cfg(c) {
    for (const auto& rel : b.relocs) {
      if (rel.kind == melf::RelocKind::kAbs64) {
        abs_relocs[rel.offset] = rel.addend;
      }
    }
    for (const auto& sec : b.sections) {
      if (sec.kind == melf::SectionKind::kGot) {
        got_begin = sec.offset;
        got_end = sec.offset + sec.size;
      } else if (sec.kind == melf::SectionKind::kRodata ||
                 sec.kind == melf::SectionKind::kData) {
        data_extents.emplace_back(sec.offset, sec.offset + sec.size);
      }
    }
  }

  bool in_data(uint64_t off) const {
    for (const auto& [b, e] : data_extents) {
      if (off >= b && off < e) return true;
    }
    return false;
  }

  std::optional<size_t> got_slot(uint64_t off) const {
    if (off < got_begin || off >= got_end || (off - got_begin) % 8 != 0) {
      return std::nullopt;
    }
    return (off - got_begin) / 8;
  }
};

// Offset arithmetic; constant operands never get here (fold() runs first).
AbsVal add_vals(const AbsVal& a, const AbsVal& b) {
  using K = AbsVal::Kind;
  // offset + constant keeps exactness; offset + unknown keeps the base.
  auto mix = [](const AbsVal& off, const AbsVal& other) -> AbsVal {
    if (other.kind == K::kConst) {
      if (off.kind == K::kModOff) return AbsVal::mod_off(off.value + other.value);
      return AbsVal::mod_off_var(off.value);
    }
    if (other.kind == K::kUnknown) return AbsVal::mod_off_var(off.value);
    return AbsVal::unknown();
  };
  if (a.kind == K::kModOff || a.kind == K::kModOffVar) return mix(a, b);
  if (b.kind == K::kModOff || b.kind == K::kModOffVar) return mix(b, a);
  return AbsVal::unknown();
}

AbsVal sub_vals(const AbsVal& a, const AbsVal& b) {
  using K = AbsVal::Kind;
  if (a.kind == K::kModOff && b.kind == K::kConst) {
    return AbsVal::mod_off(a.value - b.value);
  }
  if (a.kind == K::kModOffVar) return AbsVal::mod_off_var(a.value);
  return AbsVal::unknown();
}

/// The address an instruction's memory operand resolves to, if any.
struct ResolvedAddr {
  uint64_t target = 0;
  bool exact = false;
  bool ok = false;
};

ResolvedAddr resolve_addr(const AbsVal& base, int64_t disp) {
  using K = AbsVal::Kind;
  if (base.kind == K::kModOff) {
    return {base.value + static_cast<uint64_t>(disp), true, true};
  }
  if (base.kind == K::kModOffVar) return {base.value, false, true};
  return {};
}

/// Runs an alu op whose source registers all hold constants through the
/// semantic function the VM executes, so the folded value is the one the
/// guest computes. A divide by a constant 0 faults at run time, so no later
/// instruction sees its result; 0 stands in.
std::optional<AbsVal> fold(const isa::Instr& ins, const RegState& s) {
  vm::Cpu cpu;
  const uint16_t used = isa::uses(ins);
  for (int r = 0; r < isa::kNumRegs; ++r) {
    if ((used & bit(r)) == 0) continue;
    if (s[r].kind != AbsVal::Kind::kConst) return std::nullopt;
    cpu.regs[r] = s[r].value;
  }
  if (vm::ops::alu(cpu, ins)) return AbsVal::konst(0);
  return AbsVal::konst(cpu.regs[ins.r1]);
}

/// Applies one instruction to the register state; records resolvable memory
/// accesses into `refs` when non-null.
void transfer(const ModCtx& mc, uint64_t off, uint64_t block,
              const isa::Instr& ins, RegState& s,
              std::vector<MemRef>* refs) {
  switch (ins.op) {
    case Op::kMovRI: {
      auto rit = mc.abs_relocs.find(off + 2);  // imm64 field (mov_sym)
      s[ins.r1] = rit != mc.abs_relocs.end()
                      ? AbsVal::mod_off(static_cast<uint64_t>(rit->second))
                      : AbsVal::konst(static_cast<uint64_t>(ins.imm));
      return;
    }
    case Op::kLea:
      s[ins.r1] = AbsVal::mod_off(off + ins.length +
                                  static_cast<uint64_t>(ins.imm));
      return;
    case Op::kLoad:
    case Op::kLoadB: {
      ResolvedAddr a = resolve_addr(s[ins.r2], ins.imm);
      if (a.ok && refs != nullptr) {
        refs->push_back({off, block, a.target, false, a.exact});
      }
      AbsVal v = AbsVal::unknown();
      if (ins.op == Op::kLoad && a.ok) {
        if (a.exact) {
          if (auto slot = mc.got_slot(a.target)) {
            v = AbsVal::import(*slot);
          } else if (auto rit = mc.abs_relocs.find(a.target);
                     rit != mc.abs_relocs.end()) {
            // A pointer slot with a constant index: the loaded value is the
            // relocated absolute address, i.e. base + addend.
            v = AbsVal::mod_off(static_cast<uint64_t>(rit->second));
          }
        } else if (mc.in_data(a.target)) {
          v = AbsVal::table_val(a.target);
        }
      }
      s[ins.r1] = v;
      return;
    }
    case Op::kStore:
    case Op::kStoreB: {
      ResolvedAddr a = resolve_addr(s[ins.r1], ins.imm);
      if (a.ok && refs != nullptr) {
        refs->push_back({off, block, a.target, true, a.exact});
      }
      return;
    }
    case Op::kPop:
      s[ins.r1] = AbsVal::unknown();  // stack contents are not modelled
      return;
    case Op::kSyscall:
      s[0] = AbsVal::unknown();
      return;
    default:
      break;
  }
  // cmp/branches/push/call/ret/nop/trap: no register writes here.
  if (isa::op_class(ins.op) != isa::OpClass::kAlu || isa::defs(ins) == 0) {
    return;
  }
  if (auto v = fold(ins, s)) {
    s[ins.r1] = *v;
    return;
  }
  const AbsVal imm = AbsVal::konst(static_cast<uint64_t>(ins.imm));
  switch (ins.op) {
    case Op::kMovRR: s[ins.r1] = s[ins.r2]; break;
    case Op::kAddRR: s[ins.r1] = add_vals(s[ins.r1], s[ins.r2]); break;
    case Op::kAddRI: s[ins.r1] = add_vals(s[ins.r1], imm); break;
    case Op::kSubRR: s[ins.r1] = sub_vals(s[ins.r1], s[ins.r2]); break;
    case Op::kSubRI: s[ins.r1] = sub_vals(s[ins.r1], imm); break;
    case Op::kXorRR:
      s[ins.r1] = ins.r1 == ins.r2 ? AbsVal::konst(0) : AbsVal::unknown();
      break;
    default: s[ins.r1] = AbsVal::unknown(); break;
  }
}

}  // namespace

AbsVal join(const AbsVal& a, const AbsVal& b) {
  using K = AbsVal::Kind;
  if (a == b) return a;
  if (a.kind == K::kUnknown || b.kind == K::kUnknown) return AbsVal::unknown();
  auto base_of = [](const AbsVal& v) -> std::optional<uint64_t> {
    if (v.kind == K::kModOff || v.kind == K::kModOffVar) return v.value;
    return std::nullopt;
  };
  auto ab = base_of(a), bb = base_of(b);
  if (ab && bb) return AbsVal::mod_off_var(std::min(*ab, *bb));
  return AbsVal::unknown();
}

ModuleDataflow analyze_module(const melf::Binary& bin, const StaticCfg& cfg) {
  ModCtx mc(bin, cfg);
  ModuleDataflow out;

  std::set<uint64_t> entry_like;  ///< blocks whose in-state is pinned unknown
  for (const auto& sym : bin.symbols) {
    if (sym.is_function && cfg.blocks.count(sym.value) != 0) {
      entry_like.insert(sym.value);
    }
  }
  auto preds = predecessors(cfg);
  for (const auto& [off, blk] : cfg.blocks) {
    if (preds.count(off) == 0) entry_like.insert(off);
  }

  RegState all_unknown{};
  std::deque<uint64_t> work(entry_like.begin(), entry_like.end());
  for (uint64_t b : entry_like) out.block_in[b] = all_unknown;

  // Forward fixpoint: states only descend (flat lattices per register), so
  // the worklist terminates without an iteration cap.
  while (!work.empty()) {
    uint64_t boff = work.front();
    work.pop_front();
    auto iit = out.block_in.find(boff);
    if (iit == out.block_in.end()) continue;
    const CfgBlock& blk = cfg.blocks.at(boff);

    RegState s = iit->second;
    uint64_t cur = boff;
    isa::Instr ins;
    for (uint32_t i = 0; i < blk.instr_count && decode_at(bin, cur, ins);
         ++i) {
      transfer(mc, cur, boff, ins, s, nullptr);
      cur += ins.length;
    }

    uint64_t fallthrough = boff + blk.size;
    for (uint64_t t : blk.succs) {
      if (cfg.blocks.count(t) == 0) continue;
      RegState edge = s;
      bool is_call_fall = (blk.term == Op::kCall || blk.term == Op::kCallR) &&
                          t == fallthrough;
      if (is_call_fall) {
        for (int r = 0; r < isa::kNumRegs; ++r) {
          if ((isa::kCallerSaved & bit(r)) != 0) edge[r] = AbsVal::unknown();
        }
      }
      if (entry_like.count(t) != 0) continue;  // pinned to all-unknown
      auto [eit, inserted] = out.block_in.try_emplace(t, edge);
      if (inserted) {
        work.push_back(t);
        continue;
      }
      bool changed = false;
      for (int r = 0; r < isa::kNumRegs; ++r) {
        AbsVal j = join(eit->second[r], edge[r]);
        if (!(j == eit->second[r])) {
          eit->second[r] = j;
          changed = true;
        }
      }
      if (changed) work.push_back(t);
    }
  }

  // Final pass: with stable entry states, record memory references and the
  // transfer-register value at every indirect terminator.
  for (const auto& [boff, blk] : cfg.blocks) {
    RegState s = all_unknown;
    if (auto it = out.block_in.find(boff); it != out.block_in.end()) {
      s = it->second;
    }
    uint64_t cur = boff;
    isa::Instr ins;
    for (uint32_t i = 0; i < blk.instr_count && decode_at(bin, cur, ins);
         ++i) {
      if ((ins.op == Op::kCallR || ins.op == Op::kJmpR) &&
          cur + ins.length == boff + blk.size) {
        out.indirect_reg[boff] = s[ins.r1];
      }
      transfer(mc, cur, boff, ins, s, &out.mem_refs);
      cur += ins.length;
    }
  }
  return out;
}

FuncDataflow analyze_function(const melf::Binary& bin, const StaticCfg& cfg,
                              const FuncCfg& f) {
  FuncDataflow out;

  // Per-block facts: def/use masks and net stack delta.
  for (uint64_t boff : f.blocks) {
    const CfgBlock* blk = cfg.block_at(boff);
    if (blk == nullptr) continue;
    BlockFacts facts;
    uint64_t cur = boff;
    isa::Instr ins;
    for (uint32_t i = 0; i < blk->instr_count && decode_at(bin, cur, ins);
         ++i) {
      facts.use_mask |= isa::uses(ins) & ~facts.def_mask;
      facts.def_mask |= isa::defs(ins);
      std::optional<int64_t> d = isa::sp_delta(ins);
      if (!d) {
        facts.stack_delta = kUnknownDepth;  // SP escapes tracking
      } else if (facts.stack_delta != kUnknownDepth) {
        facts.stack_delta += *d;
      }
      cur += ins.length;
    }
    out.facts[boff] = facts;
  }

  // Intra-function predecessors.
  std::map<uint64_t, std::vector<uint64_t>> preds;
  for (const auto& [boff, succs] : f.succs) {
    for (uint64_t t : succs) preds[t].push_back(boff);
  }

  // Backward liveness to a fixed point.
  for (uint64_t b : f.blocks) {
    out.live_in[b] = 0;
    out.live_out[b] = 0;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto it = f.blocks.rbegin(); it != f.blocks.rend(); ++it) {
      uint64_t b = *it;
      auto fit = out.facts.find(b);
      if (fit == out.facts.end()) continue;
      uint16_t lo = 0;
      auto sit = f.succs.find(b);
      if (sit == f.succs.end() || sit->second.empty()) {
        lo = bit(0);  // exits: the return value is observable
      } else {
        for (uint64_t t : sit->second) lo |= out.live_in[t];
      }
      uint16_t li = fit->second.use_mask |
                    static_cast<uint16_t>(lo & ~fit->second.def_mask);
      if (lo != out.live_out[b] || li != out.live_in[b]) {
        out.live_out[b] = lo;
        out.live_in[b] = li;
        changed = true;
      }
    }
  }

  // Forward stack depth from the function entry.
  out.depth_in[f.entry] = 0;
  std::deque<uint64_t> work{f.entry};
  while (!work.empty()) {
    uint64_t b = work.front();
    work.pop_front();
    auto dit = out.depth_in.find(b);
    auto fit = out.facts.find(b);
    if (dit == out.depth_in.end() || fit == out.facts.end()) continue;
    int64_t depth_out =
        (dit->second == kUnknownDepth ||
         fit->second.stack_delta == kUnknownDepth)
            ? kUnknownDepth
            : dit->second + fit->second.stack_delta;
    auto sit = f.succs.find(b);
    if (sit == f.succs.end()) continue;
    for (uint64_t t : sit->second) {
      auto [tit, inserted] = out.depth_in.try_emplace(t, depth_out);
      if (inserted) {
        work.push_back(t);
      } else if (tit->second != depth_out && tit->second != kUnknownDepth) {
        tit->second = kUnknownDepth;  // paths disagree
        work.push_back(t);
      }
    }
  }

  // Reaching definitions at block granularity -> data dependences.
  using DefSets = std::array<std::set<uint64_t>, isa::kNumRegs>;
  std::map<uint64_t, DefSets> rd_in;
  changed = true;
  while (changed) {
    changed = false;
    for (uint64_t b : f.blocks) {
      auto fit = out.facts.find(b);
      if (fit == out.facts.end()) continue;
      DefSets in;
      if (auto pit = preds.find(b); pit != preds.end()) {
        for (uint64_t p : pit->second) {
          auto pfit = out.facts.find(p);
          if (pfit == out.facts.end()) continue;
          const DefSets* pin = nullptr;
          if (auto piit = rd_in.find(p); piit != rd_in.end()) {
            pin = &piit->second;
          }
          for (int r = 0; r < isa::kNumRegs; ++r) {
            if ((pfit->second.def_mask & bit(r)) != 0) {
              in[r].insert(p);
            } else if (pin != nullptr) {
              in[r].insert((*pin)[r].begin(), (*pin)[r].end());
            }
          }
        }
      }
      auto [iit, inserted] = rd_in.try_emplace(b, in);
      if (!inserted && iit->second != in) {
        iit->second = std::move(in);
        changed = true;
      } else if (inserted) {
        changed = true;
      }
    }
  }
  for (uint64_t b : f.blocks) {
    auto fit = out.facts.find(b);
    auto iit = rd_in.find(b);
    if (fit == out.facts.end() || iit == rd_in.end()) continue;
    std::set<uint64_t>& deps = out.data_deps[b];
    for (int r = 0; r < isa::kNumRegs; ++r) {
      if ((fit->second.use_mask & bit(r)) != 0) {
        deps.insert(iit->second[r].begin(), iit->second[r].end());
      }
    }
    deps.erase(b);
  }
  return out;
}

}  // namespace dynacut::analysis::slicer
