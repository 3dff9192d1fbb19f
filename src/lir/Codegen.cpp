//===- lir/Codegen.cpp - Lowering, regalloc, emission ----------------------===//

#include "lir/Codegen.h"

#include "mir/MIRGraph.h"
#include "support/Assert.h"
#include "vm/Bytecode.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

using namespace jitvs;

namespace {

/// Virtual-register form of a native instruction.
struct LIns {
  NOp Op = NOp::Nop;
  uint32_t A = 0, B = 0, C = 0;
  int32_t Imm = 0;
};

constexpr uint32_t NoReg = ~0u;

/// Whether a value of MIR type \p T can be a GC-managed pointer. Stores
/// whose value operand is provably primitive skip the generational
/// write barrier (the flag rides in the op's spare immediate field).
bool mirTypeMayBeGC(MIRType T) {
  switch (T) {
  case MIRType::Int32:
  case MIRType::Double:
  case MIRType::Boolean:
  case MIRType::Undefined:
  case MIRType::Null:
  case MIRType::None:
    return false;
  case MIRType::Any:
  case MIRType::String:
  case MIRType::Object:
  case MIRType::Array:
  case MIRType::Function:
    return true;
  }
  return true;
}

/// Which fields of an op are register defs/uses (others are immediates).
struct OpInfo {
  bool ADef = false, AUse = false, BUse = false, CUse = false;
  bool HasSnapshot = false;
};

OpInfo opInfo(NOp O) {
  OpInfo I;
  switch (O) {
  case NOp::Nop:
  case NOp::CheckDepth:
  case NOp::Jmp:
    break;
  case NOp::Mov:
  case NOp::TruncToInt32:
  case NOp::ToDouble:
  case NOp::Not:
  case NOp::TypeOfV:
  case NOp::ArrayLen:
  case NOp::StrLen:
  case NOp::FromCharCode:
  case NOp::GenUn:
  case NOp::GenGetProp:
  case NOp::NewArrLen:
  case NOp::CallV:
  case NOp::CallM:
  case NOp::CallT:
  case NOp::LoadSlot:
  case NOp::NewCall:
  case NOp::NegD:
  case NOp::BitNot:
    I.ADef = I.BUse = true;
    break;
  case NOp::LoadConst:
  case NOp::LoadSpill:
  case NOp::LoadParam:
  case NOp::LoadThis:
  case NOp::LoadOsr:
  case NOp::GetGlobal:
  case NOp::GetEnv:
  case NOp::NewArrElems:
  case NOp::NewObj:
  case NOp::MakeClos:
    I.ADef = true;
    break;
  case NOp::StoreSpill:
  case NOp::SetGlobal:
  case NOp::SetEnv:
  case NOp::PushArg:
  case NOp::JTrue:
  case NOp::JFalse:
  case NOp::Ret:
    I.AUse = true;
    break;
  case NOp::AddI:
  case NOp::SubI:
  case NOp::MulI:
  case NOp::ModI:
    I.ADef = I.BUse = I.CUse = true;
    I.HasSnapshot = true;
    break;
  case NOp::NegI:
    I.ADef = I.BUse = true;
    I.HasSnapshot = true;
    break;
  case NOp::AddINoOvf:
  case NOp::SubINoOvf:
  case NOp::MulINoOvf:
  case NOp::AddD:
  case NOp::SubD:
  case NOp::MulD:
  case NOp::DivD:
  case NOp::ModD:
  case NOp::BitAnd:
  case NOp::BitOr:
  case NOp::BitXor:
  case NOp::Shl:
  case NOp::Shr:
  case NOp::UShr:
  case NOp::CmpI:
  case NOp::CmpD:
  case NOp::CmpS:
  case NOp::CmpGeneric:
  case NOp::Concat:
  case NOp::LoadElem:
  case NOp::CharCodeAt:
  case NOp::GenBin:
  case NOp::GenGetElem:
    I.ADef = I.BUse = I.CUse = true;
    break;
  case NOp::MathFn:
    I.ADef = I.BUse = true;
    // CUse handled specially (0xFFFF sentinel for unary intrinsics).
    break;
  case NOp::GuardTag:
    I.AUse = true;
    I.HasSnapshot = true;
    break;
  case NOp::GuardNumber:
  case NOp::GuardShape:
    I.ADef = I.BUse = true;
    I.HasSnapshot = true;
    break;
  case NOp::BoundsCheck:
    I.AUse = I.BUse = true;
    I.HasSnapshot = true;
    break;
  case NOp::GuardArrLen:
    I.AUse = true;
    I.HasSnapshot = true;
    break;
  case NOp::StoreElem:
  case NOp::GenSetElem:
    I.AUse = I.BUse = I.CUse = true;
    break;
  case NOp::InitProp:
  case NOp::GenSetProp:
  case NOp::StoreSlot:
  case NOp::AddSlot:
    I.AUse = I.BUse = true;
    break;
  case NOp::BrCmpII:
  case NOp::BrCmpDD:
  case NOp::AddIImm:
  case NOp::SubIImm:
  case NOp::MulIImm:
  case NOp::AddINoOvfImm:
  case NOp::SubINoOvfImm:
  case NOp::MulINoOvfImm:
  case NOp::AddDImm:
  case NOp::SubDImm:
  case NOp::MulDImm:
  case NOp::DivDImm:
  case NOp::GuardTagMov:
  case NOp::FuseData:
    JITVS_UNREACHABLE("fused macro-ops are created post-regalloc, not in LIR");
  }
  return I;
}

bool mathFnHasSecondArg(const LIns &L) {
  return L.Op == NOp::MathFn && L.C != 0xFFFF;
}

/// Splits edges P->S where P has several successors and S has phis, so
/// phi moves can be placed in a dedicated block.
void splitCriticalEdges(MIRGraph &Graph) {
  std::vector<MBasicBlock *> Blocks = Graph.liveBlocks();
  for (MBasicBlock *P : Blocks) {
    MInstr *T = P->terminator();
    if (!T || T->numSuccessors() < 2)
      continue;
    for (size_t S = 0, E = T->numSuccessors(); S != E; ++S) {
      MBasicBlock *Succ = T->successor(S);
      if (Succ->phis().empty() && Succ->numPredecessors() < 2)
        continue;
      if (Succ->phis().empty())
        continue;
      MBasicBlock *Mid = Graph.createBlock();
      MInstr *J = Graph.create(MirOp::Goto, MIRType::None);
      J->setSuccessor(0, Succ);
      Mid->append(J);
      T->setSuccessor(S, Mid);
      Mid->addPredecessor(P);
      Succ->replacePredecessor(P, Mid);
    }
  }
}

class CodeGenerator {
public:
  CodeGenerator(MIRGraph &Graph) : Graph(Graph) {}

  std::unique_ptr<NativeCode> run(CodegenStats *Stats);

private:
  // --- Lowering ---
  uint32_t newVReg() { return NextVReg++; }
  uint32_t vregOf(MInstr *Def);
  /// Operand use: materializes constants (per block).
  uint32_t use(MInstr *Def);
  /// Materializes both operands of a binary op in fusion-friendly order:
  /// a not-yet-materialized constant is evaluated last, so its LoadConst
  /// lands immediately before the consumer, and for \p Commutative ops a
  /// constant lhs is swapped into the rhs slot — the LoadConst+arith
  /// shape the post-regalloc macro-op fusion pass pairs up.
  std::pair<uint32_t, uint32_t> useBinOperands(MInstr *I, bool Commutative);
  void emit(NOp Op, uint32_t A = 0, uint32_t B = 0, uint32_t C = 0,
            int32_t Imm = 0) {
    LIns L;
    L.Op = Op;
    L.A = A;
    L.B = B;
    L.C = C;
    L.Imm = Imm;
    Lir.push_back(L);
  }
  uint32_t snapshotFor(MResumePoint *RP);
  void lowerBlock(MBasicBlock *B, MBasicBlock *Next);
  void lowerInstr(MInstr *I);
  void lowerPhiMoves(MBasicBlock *B, MBasicBlock *Succ);
  int32_t blockMark(MBasicBlock *B) {
    return static_cast<int32_t>(B->id());
  }

  // --- Liveness & allocation ---
  void computeLiveness();
  void allocateRegisters();

  // --- Final emission ---
  std::unique_ptr<NativeCode> emitFinal(CodegenStats *Stats);

  MIRGraph &Graph;
  std::vector<MBasicBlock *> Order;
  std::vector<LIns> Lir;
  /// LIR index where each block's code begins (by block id).
  std::unordered_map<uint32_t, uint32_t> BlockStartL;
  /// Per-block ranges in LIR indices (by order position).
  std::vector<std::pair<uint32_t, uint32_t>> BlockRangeL;

  uint32_t NextVReg = 0;
  std::unordered_map<MInstr *, uint32_t> VRegs;
  std::unordered_map<MInstr *, uint32_t> BlockConstCache; // Keyed per block.
  MBasicBlock *CurBlock = nullptr;

  std::unique_ptr<NativeCode> Out;
  std::unordered_map<MResumePoint *, uint32_t> SnapshotIds;
  /// Snapshot register entries still holding vregs (rewritten after RA).
  // (Entries are stored in Out->Snapshots with vreg indices.)

  // Liveness.
  struct Interval {
    uint32_t VReg = 0;
    uint32_t Start = ~0u;
    uint32_t End = 0;
    int Reg = -1;
    int Slot = -1;
  };
  std::vector<Interval> Intervals;
  std::vector<int> RegOf;  // vreg -> phys reg or -1
  std::vector<int> SlotOf; // vreg -> spill slot or -1
  uint32_t NumSpills = 0;
};

uint32_t CodeGenerator::vregOf(MInstr *Def) {
  auto It = VRegs.find(Def);
  if (It != VRegs.end())
    return It->second;
  uint32_t V = newVReg();
  VRegs[Def] = V;
  return V;
}

uint32_t CodeGenerator::use(MInstr *Def) {
  if (Def->op() == MirOp::Constant) {
    auto It = BlockConstCache.find(Def);
    if (It != BlockConstCache.end())
      return It->second;
    uint32_t V = newVReg();
    emit(NOp::LoadConst, V, 0, 0, Out->addConstant(Def->constValue()));
    BlockConstCache[Def] = V;
    return V;
  }
  assert(VRegs.count(Def) && "use before definition in lowering order");
  return VRegs[Def];
}

std::pair<uint32_t, uint32_t> CodeGenerator::useBinOperands(MInstr *I,
                                                           bool Commutative) {
  MInstr *L = I->operand(0), *R = I->operand(1);
  auto FreshConst = [this](MInstr *D) {
    return D->op() == MirOp::Constant && !BlockConstCache.count(D);
  };
  if (Commutative && FreshConst(L) && !FreshConst(R)) {
    uint32_t RV = use(R);
    return {RV, use(L)}; // Constant materialized last, in the rhs slot.
  }
  uint32_t LV = use(L);
  return {LV, use(R)};
}

uint32_t CodeGenerator::snapshotFor(MResumePoint *RP) {
  auto It = SnapshotIds.find(RP);
  if (It != SnapshotIds.end())
    return It->second;
  Snapshot S;
  S.PC = RP->pc();
  S.NumFrameSlots = RP->numFrameSlots();
  for (size_t I = 0, E = RP->numEntries(); I != E; ++I) {
    MInstr *Entry = RP->entry(I);
    SnapshotEntry SE;
    if (Entry->op() == MirOp::Constant) {
      SE.IsConst = true;
      SE.Index = Out->addConstant(Entry->constValue());
    } else {
      SE.IsConst = false;
      SE.Index = use(Entry); // vreg; rewritten after allocation.
    }
    S.Entries.push_back(SE);
  }
  uint32_t Id = static_cast<uint32_t>(Out->Snapshots.size());
  Out->Snapshots.push_back(std::move(S));
  SnapshotIds[RP] = Id;
  return Id;
}

void CodeGenerator::lowerPhiMoves(MBasicBlock *B, MBasicBlock *Succ) {
  if (Succ->phis().empty())
    return;
  size_t PredIdx = Succ->indexOfPredecessor(B);

  // Parallel move: (dstVReg <- src) resolved with cycle breaking.
  struct Move {
    uint32_t Dst;
    MInstr *Src;
  };
  std::vector<Move> Moves;
  for (MInstr *Phi : Succ->phis())
    Moves.push_back({vregOf(Phi), Phi->operand(PredIdx)});

  // Resolve. Sources that are constants never participate in cycles.
  std::unordered_map<uint32_t, uint32_t> Renamed; // old vreg -> temp.
  while (!Moves.empty()) {
    bool Progress = false;
    for (size_t I = 0; I < Moves.size(); ++I) {
      uint32_t Dst = Moves[I].Dst;
      // Is Dst a pending source?
      bool Blocked = false;
      for (size_t J = 0; J < Moves.size(); ++J) {
        if (J == I || Moves[J].Src->op() == MirOp::Constant)
          continue;
        uint32_t SrcV = VRegs.count(Moves[J].Src)
                            ? VRegs[Moves[J].Src]
                            : NoReg;
        auto RIt = Renamed.find(SrcV);
        if (RIt != Renamed.end())
          SrcV = RIt->second;
        if (SrcV == Dst) {
          Blocked = true;
          break;
        }
      }
      if (Blocked)
        continue;
      MInstr *Src = Moves[I].Src;
      if (Src->op() == MirOp::Constant) {
        emit(NOp::LoadConst, Dst, 0, 0, Out->addConstant(Src->constValue()));
      } else {
        uint32_t SrcV = use(Src);
        auto RIt = Renamed.find(SrcV);
        if (RIt != Renamed.end())
          SrcV = RIt->second;
        if (SrcV != Dst)
          emit(NOp::Mov, Dst, SrcV);
      }
      Moves[I] = Moves.back();
      Moves.pop_back();
      Progress = true;
      break;
    }
    if (Progress)
      continue;
    // Cycle: save one pending source into a temp.
    MInstr *Src = Moves[0].Src;
    uint32_t SrcV = use(Src);
    auto RIt = Renamed.find(SrcV);
    if (RIt != Renamed.end())
      SrcV = RIt->second;
    uint32_t Temp = newVReg();
    emit(NOp::Mov, Temp, SrcV);
    Renamed[SrcV] = Temp;
  }
}

void CodeGenerator::lowerInstr(MInstr *I) {
  switch (I->op()) {
  case MirOp::Start:
  case MirOp::Constant:
  case MirOp::Phi:
    return;

  case MirOp::Parameter:
    emit(NOp::LoadParam, vregOf(I), 0, 0, static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::OsrValue:
    emit(NOp::LoadOsr, vregOf(I), 0, 0, static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::GetThis:
    emit(NOp::LoadThis, vregOf(I));
    return;

  case MirOp::Goto:
  case MirOp::Test:
  case MirOp::Return:
    JITVS_UNREACHABLE("terminators lowered by lowerBlock");

  case MirOp::Unbox: {
    MIRType Want = static_cast<MIRType>(I->AuxA);
    uint32_t Snap = snapshotFor(I->resumePoint());
    uint32_t Src = use(I->operand(0));
    if (Want == MIRType::Double) {
      emit(NOp::GuardNumber, vregOf(I), Src, 0, Snap);
      return;
    }
    ValueTag Tag;
    switch (Want) {
    case MIRType::Int32:
      Tag = ValueTag::Int32;
      break;
    case MIRType::Boolean:
      Tag = ValueTag::Boolean;
      break;
    case MIRType::String:
      Tag = ValueTag::String;
      break;
    case MIRType::Array:
      Tag = ValueTag::Array;
      break;
    case MIRType::Object:
      Tag = ValueTag::Object;
      break;
    case MIRType::Function:
      Tag = ValueTag::Function;
      break;
    default:
      JITVS_UNREACHABLE("bad unbox target");
    }
    emit(NOp::GuardTag, Src, static_cast<uint32_t>(Tag), 0, Snap);
    emit(NOp::Mov, vregOf(I), Src);
    return;
  }
  case MirOp::TypeBarrier: {
    uint32_t Snap = snapshotFor(I->resumePoint());
    uint32_t Src = use(I->operand(0));
    emit(NOp::GuardTag, Src, I->AuxA, 0, Snap);
    emit(NOp::Mov, vregOf(I), Src);
    return;
  }
  case MirOp::ToDouble:
    emit(NOp::ToDouble, vregOf(I), use(I->operand(0)));
    return;
  case MirOp::TruncateToInt32:
    emit(NOp::TruncToInt32, vregOf(I), use(I->operand(0)));
    return;

#define LOWER_BIN_SNAP(MOP, NOPC, NOPC_NC, COMM)                               \
  case MirOp::MOP: {                                                           \
    auto [LV, RV] = useBinOperands(I, COMM);                                   \
    if (I->AuxB == 1) { /* Overflow check eliminated. */                       \
      emit(NOp::NOPC_NC, vregOf(I), LV, RV);                                   \
      return;                                                                  \
    }                                                                          \
    uint32_t Snap = snapshotFor(I->resumePoint());                             \
    emit(NOp::NOPC, vregOf(I), LV, RV, Snap);                                  \
    return;                                                                    \
  }
    LOWER_BIN_SNAP(AddI, AddI, AddINoOvf, true)
    LOWER_BIN_SNAP(SubI, SubI, SubINoOvf, false)
    LOWER_BIN_SNAP(MulI, MulI, MulINoOvf, true)
    LOWER_BIN_SNAP(ModI, ModI, ModI, false)
#undef LOWER_BIN_SNAP
  case MirOp::NegI:
    emit(NOp::NegI, vregOf(I), use(I->operand(0)), 0,
         snapshotFor(I->resumePoint()));
    return;

#define LOWER_BIN(MOP, NOPC, COMM)                                             \
  case MirOp::MOP: {                                                           \
    auto [LV, RV] = useBinOperands(I, COMM);                                   \
    emit(NOp::NOPC, vregOf(I), LV, RV);                                        \
    return;                                                                    \
  }
    LOWER_BIN(AddD, AddD, true)
    LOWER_BIN(SubD, SubD, false)
    LOWER_BIN(MulD, MulD, true)
    LOWER_BIN(DivD, DivD, false)
    LOWER_BIN(ModD, ModD, false)
    LOWER_BIN(BitAnd, BitAnd, true)
    LOWER_BIN(BitOr, BitOr, true)
    LOWER_BIN(BitXor, BitXor, true)
    LOWER_BIN(Shl, Shl, false)
    LOWER_BIN(Shr, Shr, false)
    LOWER_BIN(UShr, UShr, false)
    LOWER_BIN(Concat, Concat, false)
    LOWER_BIN(LoadElement, LoadElem, false)
    LOWER_BIN(CharCodeAt, CharCodeAt, false)
    LOWER_BIN(GenericGetElem, GenGetElem, false)
#undef LOWER_BIN
  case MirOp::NegD:
    emit(NOp::NegD, vregOf(I), use(I->operand(0)));
    return;
  case MirOp::BitNot:
    emit(NOp::BitNot, vregOf(I), use(I->operand(0)));
    return;

  case MirOp::CompareI:
  case MirOp::CompareD:
  case MirOp::CompareS:
  case MirOp::CompareGeneric: {
    NOp N = I->op() == MirOp::CompareI   ? NOp::CmpI
            : I->op() == MirOp::CompareD ? NOp::CmpD
            : I->op() == MirOp::CompareS ? NOp::CmpS
                                         : NOp::CmpGeneric;
    emit(N, vregOf(I), use(I->operand(0)), use(I->operand(1)),
         static_cast<int32_t>(I->AuxA));
    return;
  }
  case MirOp::Not:
    emit(NOp::Not, vregOf(I), use(I->operand(0)));
    return;
  case MirOp::TypeOf:
    emit(NOp::TypeOfV, vregOf(I), use(I->operand(0)));
    return;

  case MirOp::CheckOverRecursed:
    emit(NOp::CheckDepth);
    return;

  case MirOp::BoundsCheck:
    emit(NOp::BoundsCheck, use(I->operand(0)), use(I->operand(1)), 0,
         snapshotFor(I->resumePoint()));
    return;
  case MirOp::GuardArrayLength:
    emit(NOp::GuardArrLen, use(I->operand(0)), 0,
         Out->addConstant(Value::int32(static_cast<int32_t>(I->AuxA))),
         snapshotFor(I->resumePoint()));
    return;

  case MirOp::ArrayLength:
    emit(NOp::ArrayLen, vregOf(I), use(I->operand(0)));
    return;
  case MirOp::StringLength:
    emit(NOp::StrLen, vregOf(I), use(I->operand(0)));
    return;
  case MirOp::StoreElement:
    emit(NOp::StoreElem, use(I->operand(0)), use(I->operand(1)),
         use(I->operand(2)),
         mirTypeMayBeGC(I->operand(2)->type()) ? 1 : 0);
    return;
  case MirOp::FromCharCode:
    emit(NOp::FromCharCode, vregOf(I), use(I->operand(0)));
    return;

  case MirOp::GenericBinop:
    emit(NOp::GenBin, vregOf(I), use(I->operand(0)), use(I->operand(1)),
         static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::GenericUnop:
    emit(NOp::GenUn, vregOf(I), use(I->operand(0)),
         0, static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::GenericSetElem: {
    uint32_t Val = use(I->operand(2));
    emit(NOp::GenSetElem, use(I->operand(0)), use(I->operand(1)), Val);
    emit(NOp::Mov, vregOf(I), Val);
    return;
  }
  case MirOp::GenericGetProp:
    emit(NOp::GenGetProp, vregOf(I), use(I->operand(0)), 0,
         static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::GenericSetProp: {
    uint32_t Val = use(I->operand(1));
    emit(NOp::GenSetProp, use(I->operand(0)), Val, 0,
         static_cast<int32_t>(I->AuxA));
    emit(NOp::Mov, vregOf(I), Val);
    return;
  }

  case MirOp::GetGlobal:
    emit(NOp::GetGlobal, vregOf(I), 0, 0, static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::SetGlobal:
    emit(NOp::SetGlobal, use(I->operand(0)), 0, 0,
         static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::GetEnvSlot:
    emit(NOp::GetEnv, vregOf(I), I->AuxB, 0, static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::SetEnvSlot:
    emit(NOp::SetEnv, use(I->operand(0)), I->AuxB,
         mirTypeMayBeGC(I->operand(0)->type()) ? 1u : 0u,
         static_cast<int32_t>(I->AuxA));
    return;

  case MirOp::NewArray: {
    for (size_t A = 0, E = I->numOperands(); A != E; ++A)
      emit(NOp::PushArg, use(I->operand(A)));
    emit(NOp::NewArrElems, vregOf(I), 0, 0,
         static_cast<int32_t>(I->numOperands()));
    return;
  }
  case MirOp::NewArrayLen:
    emit(NOp::NewArrLen, vregOf(I), use(I->operand(0)));
    return;
  case MirOp::NewObject:
    emit(NOp::NewObj, vregOf(I));
    return;
  case MirOp::InitProp:
    emit(NOp::InitProp, use(I->operand(0)), use(I->operand(1)),
         mirTypeMayBeGC(I->operand(1)->type()) ? 1u : 0u,
         static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::MakeClosure:
    emit(NOp::MakeClos, vregOf(I), 0, 0, static_cast<int32_t>(I->AuxA));
    return;

  case MirOp::Call: {
    uint32_t Callee = use(I->operand(0));
    for (size_t A = 1, E = I->numOperands(); A != E; ++A)
      emit(NOp::PushArg, use(I->operand(A)));
    emit(NOp::CallV, vregOf(I), Callee, 0,
         static_cast<int32_t>(I->numOperands() - 1));
    return;
  }
  case MirOp::CallMethod: {
    uint32_t Recv = use(I->operand(0));
    for (size_t A = 1, E = I->numOperands(); A != E; ++A)
      emit(NOp::PushArg, use(I->operand(A)));
    emit(NOp::CallM, vregOf(I), Recv,
         static_cast<uint32_t>(I->numOperands() - 1),
         static_cast<int32_t>(I->AuxA));
    return;
  }
  case MirOp::New: {
    uint32_t Callee = use(I->operand(0));
    for (size_t A = 1, E = I->numOperands(); A != E; ++A)
      emit(NOp::PushArg, use(I->operand(A)));
    emit(NOp::NewCall, vregOf(I), Callee, 0,
         static_cast<int32_t>(I->numOperands() - 1));
    return;
  }
  case MirOp::MathFunction: {
    uint32_t A0 = use(I->operand(0));
    uint32_t A1 = I->numOperands() > 1 ? use(I->operand(1)) : 0xFFFFu;
    emit(NOp::MathFn, vregOf(I), A0, A1, static_cast<int32_t>(I->AuxA));
    return;
  }

  case MirOp::GuardShape: {
    // Copy the graph's shape set into the binary's pool as a
    // nullptr-terminated run; C names its base index.
    const std::vector<const Shape *> &Set = Graph.shapeSet(I->AuxA);
    uint16_t Base = Out->addShape(Set[0]);
    for (size_t S = 1, E = Set.size(); S != E; ++S)
      Out->addShape(Set[S]);
    Out->addShape(nullptr);
    emit(NOp::GuardShape, vregOf(I), use(I->operand(0)), Base,
         snapshotFor(I->resumePoint()));
    return;
  }
  case MirOp::LoadSlot:
    emit(NOp::LoadSlot, vregOf(I), use(I->operand(0)), 0,
         static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::StoreSlot:
    emit(NOp::StoreSlot, use(I->operand(0)), use(I->operand(1)),
         mirTypeMayBeGC(I->operand(1)->type()) ? 1u : 0u,
         static_cast<int32_t>(I->AuxA));
    return;
  case MirOp::AddSlot:
    emit(NOp::AddSlot, use(I->operand(0)), use(I->operand(1)),
         Out->addShape(Graph.shapeSet(I->AuxA)[0]),
         static_cast<int32_t>(I->AuxB));
    return;
  case MirOp::CallWithThis: {
    uint32_t Callee = use(I->operand(0));
    for (size_t A = 2, E = I->numOperands(); A != E; ++A)
      emit(NOp::PushArg, use(I->operand(A)));
    emit(NOp::PushArg, use(I->operand(1))); // `this` is staged last.
    emit(NOp::CallT, vregOf(I), Callee,
         static_cast<uint32_t>(I->numOperands() - 2),
         static_cast<int32_t>(I->AuxB));
    return;
  }
  }
  JITVS_UNREACHABLE("bad MirOp in lowering");
}

void CodeGenerator::lowerBlock(MBasicBlock *B, MBasicBlock *Next) {
  CurBlock = B;
  BlockConstCache.clear();
  BlockStartL[B->id()] = static_cast<uint32_t>(Lir.size());

  // Phi destinations need vregs before any predecessor writes them.
  for (MInstr *Phi : B->phis())
    (void)vregOf(Phi);

  MInstr *Term = B->terminator();
  for (MInstr *I : B->instructions()) {
    if (I == Term)
      break;
    lowerInstr(I);
  }

  if (!Term) {
    assert(B->instructions().empty() && "block without terminator");
    return;
  }

  switch (Term->op()) {
  case MirOp::Goto: {
    MBasicBlock *Succ = Term->successor(0);
    lowerPhiMoves(B, Succ);
    if (Succ != Next)
      emit(NOp::Jmp, 0, 0, 0, blockMark(Succ));
    return;
  }
  case MirOp::Test: {
    uint32_t Cond = use(Term->operand(0));
    MBasicBlock *TrueB = Term->successor(0);
    MBasicBlock *FalseB = Term->successor(1);
    assert(TrueB->phis().empty() && FalseB->phis().empty() &&
           "critical edges with phis must have been split");
    if (FalseB == Next) {
      emit(NOp::JTrue, Cond, 0, 0, blockMark(TrueB));
    } else if (TrueB == Next) {
      emit(NOp::JFalse, Cond, 0, 0, blockMark(FalseB));
    } else {
      emit(NOp::JTrue, Cond, 0, 0, blockMark(TrueB));
      emit(NOp::Jmp, 0, 0, 0, blockMark(FalseB));
    }
    return;
  }
  case MirOp::Return:
    emit(NOp::Ret, use(Term->operand(0)));
    return;
  default:
    JITVS_UNREACHABLE("bad terminator");
  }
}

void CodeGenerator::computeLiveness() {
  size_t NumBlocks = Order.size();
  BlockRangeL.resize(NumBlocks);
  for (size_t I = 0; I != NumBlocks; ++I) {
    uint32_t Start = BlockStartL[Order[I]->id()];
    uint32_t End = I + 1 < NumBlocks
                       ? BlockStartL[Order[I + 1]->id()]
                       : static_cast<uint32_t>(Lir.size());
    BlockRangeL[I] = {Start, End};
  }

  auto ForEachUse = [this](const LIns &L, auto Fn) {
    OpInfo OI = opInfo(L.Op);
    if (OI.AUse)
      Fn(L.A);
    if (OI.BUse)
      Fn(L.B);
    if (OI.CUse)
      Fn(L.C);
    if (mathFnHasSecondArg(L))
      Fn(L.C);
    if (OI.HasSnapshot) {
      const Snapshot &S = Out->Snapshots[static_cast<size_t>(L.Imm)];
      for (const SnapshotEntry &E : S.Entries)
        if (!E.IsConst)
          Fn(E.Index);
    }
  };

  // Block-level liveness to a fixed point.
  std::vector<std::unordered_set<uint32_t>> LiveIn(NumBlocks),
      LiveOut(NumBlocks);
  std::unordered_map<uint32_t, size_t> OrderIdx;
  for (size_t I = 0; I != NumBlocks; ++I)
    OrderIdx[Order[I]->id()] = I;

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t BI = NumBlocks; BI-- > 0;) {
      MBasicBlock *B = Order[BI];
      std::unordered_set<uint32_t> Live;
      for (size_t S = 0, E = B->numSuccessors(); S != E; ++S) {
        auto It = OrderIdx.find(B->successor(S)->id());
        if (It == OrderIdx.end())
          continue;
        for (uint32_t V : LiveIn[It->second])
          Live.insert(V);
      }
      if (Live.size() != LiveOut[BI].size()) {
        LiveOut[BI] = Live;
        Changed = true;
      } else if (!(Live == LiveOut[BI])) {
        LiveOut[BI] = Live;
        Changed = true;
      }
      auto [Start, End] = BlockRangeL[BI];
      for (uint32_t P = End; P-- > Start;) {
        const LIns &L = Lir[P];
        OpInfo OI = opInfo(L.Op);
        if (OI.ADef)
          Live.erase(L.A);
        ForEachUse(L, [&Live](uint32_t V) { Live.insert(V); });
      }
      if (!(Live == LiveIn[BI])) {
        LiveIn[BI] = std::move(Live);
        Changed = true;
      }
    }
  }

  // Build conservative intervals.
  Intervals.clear();
  std::unordered_map<uint32_t, size_t> IntervalOf;
  auto Touch = [this, &IntervalOf](uint32_t V, uint32_t Pos) {
    auto [It, Inserted] = IntervalOf.try_emplace(V, Intervals.size());
    if (Inserted) {
      Interval Iv;
      Iv.VReg = V;
      Intervals.push_back(Iv);
    }
    Interval &Iv = Intervals[It->second];
    Iv.Start = std::min(Iv.Start, Pos);
    Iv.End = std::max(Iv.End, Pos);
  };

  for (size_t BI = 0; BI != NumBlocks; ++BI) {
    auto [Start, End] = BlockRangeL[BI];
    for (uint32_t V : LiveIn[BI])
      Touch(V, Start);
    for (uint32_t V : LiveOut[BI])
      Touch(V, End > Start ? End - 1 : Start);
    for (uint32_t P = Start; P != End; ++P) {
      const LIns &L = Lir[P];
      OpInfo OI = opInfo(L.Op);
      if (OI.ADef)
        Touch(L.A, P);
      ForEachUse(L, [&Touch, P](uint32_t V) { Touch(V, P); });
    }
  }
}

void CodeGenerator::allocateRegisters() {
  // Registers 13..15 are reserved as spill scratch.
  constexpr int NumAllocatable = 13;

  std::sort(Intervals.begin(), Intervals.end(),
            [](const Interval &A, const Interval &B) {
              return A.Start < B.Start;
            });

  RegOf.assign(NextVReg, -1);
  SlotOf.assign(NextVReg, -1);

  std::vector<size_t> Active; // Indices into Intervals.
  std::vector<bool> RegUsed(NumAllocatable, false);

  auto Expire = [&](uint32_t Pos) {
    for (size_t I = 0; I < Active.size();) {
      Interval &Iv = Intervals[Active[I]];
      if (Iv.End < Pos) {
        RegUsed[Iv.Reg] = false;
        Active[I] = Active.back();
        Active.pop_back();
      } else {
        ++I;
      }
    }
  };

  for (size_t Idx = 0; Idx != Intervals.size(); ++Idx) {
    Interval &Iv = Intervals[Idx];
    Expire(Iv.Start);
    int Free = -1;
    for (int R = 0; R != NumAllocatable; ++R) {
      if (!RegUsed[R]) {
        Free = R;
        break;
      }
    }
    if (Free >= 0) {
      Iv.Reg = Free;
      RegUsed[Free] = true;
      Active.push_back(Idx);
      continue;
    }
    // Spill the active interval with the furthest end (or this one).
    size_t Victim = Idx;
    size_t VictimActivePos = ~0ull;
    uint32_t MaxEnd = Iv.End;
    for (size_t AI = 0; AI != Active.size(); ++AI) {
      Interval &Cand = Intervals[Active[AI]];
      if (Cand.End > MaxEnd) {
        MaxEnd = Cand.End;
        Victim = Active[AI];
        VictimActivePos = AI;
      }
    }
    if (Victim == Idx) {
      Iv.Slot = static_cast<int>(NumSpills++);
    } else {
      Interval &V = Intervals[Victim];
      Iv.Reg = V.Reg;
      V.Slot = static_cast<int>(NumSpills++);
      V.Reg = -1;
      Active[VictimActivePos] = Idx;
    }
  }

  for (const Interval &Iv : Intervals) {
    RegOf[Iv.VReg] = Iv.Reg;
    SlotOf[Iv.VReg] = Iv.Slot;
  }
}

std::unique_ptr<NativeCode> CodeGenerator::emitFinal(CodegenStats *Stats) {
  // Scratch registers for spilled operands.
  constexpr uint16_t Scratch[3] = {13, 14, 15};

  // First pass: compute the final offset of every LIR index.
  std::vector<uint32_t> FinalOffset(Lir.size() + 1, 0);
  uint32_t Off = 0;
  for (size_t P = 0; P != Lir.size(); ++P) {
    FinalOffset[P] = Off;
    const LIns &L = Lir[P];
    OpInfo OI = opInfo(L.Op);
    unsigned Extra = 0;
    auto CountSpill = [this, &Extra](uint32_t V) {
      if (SlotOf[V] >= 0)
        ++Extra;
    };
    if (OI.AUse)
      CountSpill(L.A);
    if (OI.BUse)
      CountSpill(L.B);
    if (OI.CUse || mathFnHasSecondArg(L))
      CountSpill(L.C);
    if (OI.ADef && SlotOf[L.A] >= 0)
      ++Extra;
    Off += 1 + Extra;
  }
  FinalOffset[Lir.size()] = Off;

  // Map block ids to final offsets.
  std::unordered_map<uint32_t, uint32_t> BlockFinal;
  for (const auto &[BlockId, LIdx] : BlockStartL)
    BlockFinal[BlockId] = FinalOffset[LIdx];

  // Intervals are sorted by Start (allocateRegisters), so one sweep over
  // the call sites keeps the intervals live at each: Open gains those
  // that have started and loses those that have ended.
  size_t NextInterval = 0;
  std::vector<size_t> Open; // Indices into Intervals.

  // Second pass: emit.
  for (size_t P = 0; P != Lir.size(); ++P) {
    LIns L = Lir[P];
    OpInfo OI = opInfo(L.Op);
    unsigned NextScratch = 0;
    auto MapUse = [this, &NextScratch, &Scratch](uint32_t V) -> uint16_t {
      if (RegOf[V] >= 0)
        return static_cast<uint16_t>(RegOf[V]);
      assert(SlotOf[V] >= 0 && "vreg with no location");
      uint16_t S = Scratch[NextScratch++];
      NInstr Load;
      Load.Op = NOp::LoadSpill;
      Load.A = S;
      Load.Imm = SlotOf[V];
      Out->Code.push_back(Load);
      return S;
    };

    NInstr N;
    N.Op = L.Op;
    N.Imm = L.Imm;
    N.B = static_cast<uint16_t>(L.B);
    N.C = static_cast<uint16_t>(L.C);

    // Rewrite jump targets.
    if (L.Op == NOp::Jmp || L.Op == NOp::JTrue || L.Op == NOp::JFalse)
      N.Imm = static_cast<int32_t>(BlockFinal[static_cast<uint32_t>(L.Imm)]);

    if (OI.BUse)
      N.B = MapUse(L.B);
    if (OI.CUse || mathFnHasSecondArg(L))
      N.C = MapUse(L.C);

    // Record a stack map at every runtime-call site: the frame
    // locations the allocator proved live across the call. Operands
    // that die at the call (End == P) and the call's own def are
    // excluded — the executor poisons everything else, so a location
    // omitted here can never smuggle a stale pointer past a moving
    // collection. Keyed by the call's final instruction index (spill
    // reloads for its uses were already emitted above), and emission
    // order keeps StackMaps sorted by PC for mapForPC's binary search.
    if (L.Op == NOp::CallV || L.Op == NOp::CallM || L.Op == NOp::CallT ||
        L.Op == NOp::NewCall) {
      while (NextInterval != Intervals.size() &&
             Intervals[NextInterval].Start <= P)
        Open.push_back(NextInterval++);
      StackMap M;
      M.PC = static_cast<uint32_t>(Out->Code.size());
      for (size_t I = 0; I < Open.size();) {
        const Interval &Iv = Intervals[Open[I]];
        if (Iv.End <= P) {
          Open[I] = Open.back();
          Open.pop_back();
          continue;
        }
        ++I;
        if (Iv.VReg == L.A)
          continue;
        M.Live.push_back(Iv.Reg >= 0
                             ? static_cast<uint16_t>(Iv.Reg)
                             : static_cast<uint16_t>(NumPhysRegs + Iv.Slot));
      }
      std::sort(M.Live.begin(), M.Live.end());
      M.Live.erase(std::unique(M.Live.begin(), M.Live.end()), M.Live.end());
      Out->StackMaps.push_back(std::move(M));
    }

    if (OI.AUse)
      N.A = MapUse(L.A);
    else if (OI.ADef) {
      if (RegOf[L.A] >= 0) {
        N.A = static_cast<uint16_t>(RegOf[L.A]);
        Out->Code.push_back(N);
        continue;
      }
      // Spilled def: write to scratch, then store.
      uint16_t S = Scratch[NextScratch < 3 ? NextScratch : 2];
      N.A = S;
      Out->Code.push_back(N);
      NInstr Store;
      Store.Op = NOp::StoreSpill;
      Store.A = S;
      Store.Imm = SlotOf[L.A];
      Out->Code.push_back(Store);
      continue;
    } else {
      N.A = static_cast<uint16_t>(L.A);
    }
    Out->Code.push_back(N);
  }

  // Rewrite snapshot entries from vregs to final locations.
  for (Snapshot &S : Out->Snapshots) {
    for (SnapshotEntry &E : S.Entries) {
      if (E.IsConst)
        continue;
      uint32_t V = E.Index;
      if (RegOf[V] >= 0)
        E.Index = static_cast<uint32_t>(RegOf[V]);
      else
        E.Index = NumPhysRegs + static_cast<uint32_t>(SlotOf[V]);
    }
  }

  Out->FrameSize = NumPhysRegs + NumSpills;
  Out->EntryOffset = 0;
  if (MBasicBlock *Osr = Graph.osrBlock()) {
    if (!Osr->isDead()) {
      Out->OsrOffset = BlockFinal[Osr->id()];
      if (Osr->entryResumePoint())
        Out->OsrPc = Osr->entryResumePoint()->pc();
    }
  }

  if (Stats) {
    Stats->NumVirtualRegs = NextVReg;
    Stats->NumSpills = NumSpills;
    Stats->NumInstructions = static_cast<uint32_t>(Out->Code.size());
  }
  return std::move(Out);
}

std::unique_ptr<NativeCode> CodeGenerator::run(CodegenStats *Stats) {
  Out = std::make_unique<NativeCode>(Graph.functionInfo());

  splitCriticalEdges(Graph);

  Order = Graph.reversePostOrder();
  assert(!Order.empty() && Order[0] == Graph.entry() &&
         "entry must lead the code layout");

  for (size_t I = 0, E = Order.size(); I != E; ++I)
    lowerBlock(Order[I], I + 1 < E ? Order[I + 1] : nullptr);

  computeLiveness();
  allocateRegisters();
  return emitFinal(Stats);
}

} // namespace

std::unique_ptr<NativeCode> jitvs::generateCode(MIRGraph &Graph,
                                                CodegenStats *Stats) {
  CodeGenerator CG(Graph);
  return CG.run(Stats);
}
