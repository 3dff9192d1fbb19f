//===- passes/LoopInversion.cpp - while -> do-while rotation ---------------===//
///
/// \file
/// Section 3.4: replaces a while loop (test at the header) by a repeat
/// loop (test at the latch) plus a wrapping conditional that protects the
/// zero-iteration case. Under parameter specialization the wrapper's
/// condition is frequently constant, so a subsequent dead-code
/// elimination removes it — "our parameter specialization often lets us
/// know, at code generation time, that a loop will be executed at least
/// once". When the loop has an OSR predecessor, the OSR edge is
/// retargeted into the rotated body through a shim block, exactly as in
/// the paper's Figure 7(c).
///
/// Shape requirements (loops that do not match are left alone):
///   - single latch ending in an unconditional Goto to the header;
///   - one non-loop predecessor (plus, optionally, the OSR block);
///   - the header's instructions are all duplicable (pure or guards);
///   - body entry and exit blocks have the header as sole predecessor;
///   - no header phi takes a header *instruction* as its back-edge value.
///
//===----------------------------------------------------------------------===//

#include "passes/Passes.h"

#include "mir/Dominators.h"

#include <algorithm>

#include <unordered_map>
#include <unordered_set>

using namespace jitvs;

namespace {

using SubstMap = std::unordered_map<MInstr *, MInstr *>;

MInstr *mapped(const SubstMap &Subst, MInstr *D) {
  auto It = Subst.find(D);
  return It != Subst.end() ? It->second : D;
}

/// Clones the non-phi, non-terminator instructions of \p Header into
/// \p Dest, resolving operands and resume-point entries through
/// \p Subst; extends Subst with the clones and records them in
/// \p CloneSet.
void cloneHeaderBody(MIRGraph &Graph, MBasicBlock *Header, MBasicBlock *Dest,
                     SubstMap &Subst,
                     std::unordered_set<MInstr *> &CloneSet) {
  for (MInstr *I : Header->instructions()) {
    if (I->isControl())
      continue;
    assert(!I->isEffectful() && "cloning an effectful header instruction");
    MInstr *Clone = Graph.create(I->op(), I->type());
    Clone->ConstVal = I->ConstVal;
    Clone->AuxA = I->AuxA;
    Clone->AuxB = I->AuxB;
    for (size_t OpIdx = 0, E = I->numOperands(); OpIdx != E; ++OpIdx)
      Clone->appendOperand(mapped(Subst, I->operand(OpIdx)));
    if (MResumePoint *RP = I->resumePoint()) {
      MResumePoint *NewRP =
          Graph.createResumePoint(RP->pc(), RP->numFrameSlots());
      for (size_t EIdx = 0, E = RP->numEntries(); EIdx != E; ++EIdx)
        NewRP->appendEntry(mapped(Subst, RP->entry(EIdx)));
      Clone->setResumePoint(NewRP);
    }
    Dest->append(Clone);
    Subst[I] = Clone;
    CloneSet.insert(Clone);
  }
}

/// Rotates \p Loop. \returns the wrapper block that took the dead
/// header's place, or nullptr when the loop's shape does not qualify (the
/// graph is then untouched).
MBasicBlock *invertLoop(MIRGraph &Graph, const NaturalLoop &Loop) {
  MBasicBlock *H = Loop.Header;

  if (Loop.BackEdgePreds.size() != 1)
    return nullptr;
  MBasicBlock *Latch = Loop.BackEdgePreds[0];
  MInstr *LatchTerm = Latch->terminator();
  if (!LatchTerm || LatchTerm->op() != MirOp::Goto || Latch == H)
    return nullptr;

  MInstr *T = H->terminator();
  if (!T || T->op() != MirOp::Test)
    return nullptr;
  MBasicBlock *SuccTrue = T->successor(0);
  MBasicBlock *SuccFalse = T->successor(1);
  bool TrueInLoop = Loop.contains(SuccTrue);
  bool FalseInLoop = Loop.contains(SuccFalse);
  if (TrueInLoop == FalseInLoop)
    return nullptr;
  MBasicBlock *Body = TrueInLoop ? SuccTrue : SuccFalse;
  MBasicBlock *Exit = TrueInLoop ? SuccFalse : SuccTrue;

  if (Body->numPredecessors() != 1 || Exit->numPredecessors() != 1)
    return nullptr;
  if (Body == H || Exit == H || Body == Exit)
    return nullptr;
  assert(Body->phis().empty() && Exit->phis().empty() &&
         "single-predecessor blocks cannot have phis");

  // Outside predecessors.
  MBasicBlock *Pre = nullptr;
  MBasicBlock *OsrPred = nullptr;
  for (MBasicBlock *P : H->predecessors()) {
    if (P == Latch)
      continue;
    if (P == Graph.osrBlock()) {
      OsrPred = P;
      continue;
    }
    if (Pre)
      return nullptr;
    Pre = P;
  }
  if (!Pre)
    return nullptr;
  MInstr *PreTerm = Pre->terminator();
  if (!PreTerm)
    return nullptr;

  // Header instructions must be duplicable.
  for (MInstr *I : H->instructions())
    if (I->isEffectful())
      return nullptr;

  // No header phi may carry a header instruction on its back edge (the
  // clone-resolution order cannot handle it; rare shape, skip).
  const std::vector<MInstr *> HeaderPhis = H->phis();
  size_t PreIdx = H->indexOfPredecessor(Pre);
  size_t LatchIdx = H->indexOfPredecessor(Latch);
  size_t OsrIdx = OsrPred ? H->indexOfPredecessor(OsrPred) : 0;
  for (MInstr *Phi : HeaderPhis) {
    MInstr *Back = Phi->operand(LatchIdx);
    if (!Back->isPhi() && Back->block() == H)
      return nullptr;
  }

  // --- 1. Rewire Body/Exit predecessor lists (before adding phis). ---
  Body->removePredecessor(H);
  Exit->removePredecessor(H);

  MBasicBlock *W = Graph.createBlock();
  MBasicBlock *OsrShim = OsrPred ? Graph.createBlock() : nullptr;

  Body->addPredecessor(W);
  Body->addPredecessor(Latch);
  if (OsrShim)
    Body->addPredecessor(OsrShim);
  Exit->addPredecessor(W);
  Exit->addPredecessor(Latch);
  if (OsrShim)
    Exit->addPredecessor(OsrShim);

  // --- 2. Create the rotated-loop phis (operands filled later). ---
  std::vector<MInstr *> HeaderDefs;
  for (MInstr *Phi : HeaderPhis)
    HeaderDefs.push_back(Phi);
  for (MInstr *I : H->instructions())
    if (!I->isControl())
      HeaderDefs.push_back(I);

  SubstMap BodyPhiOf, ExitPhiOf;
  for (MInstr *D : HeaderDefs) {
    MInstr *BP = Graph.create(MirOp::Phi, D->type());
    Body->addPhi(BP);
    BodyPhiOf[D] = BP;
    MInstr *XP = Graph.create(MirOp::Phi, D->type());
    Exit->addPhi(XP);
    ExitPhiOf[D] = XP;
  }

  // --- 3. Clone the header computation three ways. ---
  // Wrapper: over the loop-entry values.
  std::unordered_set<MInstr *> CloneSet;
  SubstMap WSubst;
  for (MInstr *Phi : HeaderPhis)
    WSubst[Phi] = Phi->operand(PreIdx);
  cloneHeaderBody(Graph, H, W, WSubst, CloneSet);

  // Latch: over the next-iteration values. A back-edge value that is
  // itself a header phi evaluates to that phi's current-iteration value,
  // i.e. the corresponding body phi.
  SubstMap LSubst;
  for (MInstr *Phi : HeaderPhis) {
    MInstr *Back = Phi->operand(LatchIdx);
    if (Back->isPhi() && Back->block() == H)
      LSubst[Phi] = BodyPhiOf[Back];
    else if (Back == Phi)
      LSubst[Phi] = BodyPhiOf[Phi];
    else
      LSubst[Phi] = Back;
  }
  Latch->remove(LatchTerm);
  cloneHeaderBody(Graph, H, Latch, LSubst, CloneSet);

  // OSR shim: over the OSR frame values.
  SubstMap OSubst;
  if (OsrShim) {
    for (MInstr *Phi : HeaderPhis)
      OSubst[Phi] = Phi->operand(OsrIdx);
    cloneHeaderBody(Graph, H, OsrShim, OSubst, CloneSet);
  }

  // --- 4. Fill the phi operands (pred order: W, Latch, OsrShim). ---
  for (MInstr *D : HeaderDefs) {
    MInstr *BP = BodyPhiOf[D];
    BP->appendOperand(mapped(WSubst, D));
    BP->appendOperand(mapped(LSubst, D));
    if (OsrShim)
      BP->appendOperand(mapped(OSubst, D));
    MInstr *XP = ExitPhiOf[D];
    XP->appendOperand(mapped(WSubst, D));
    XP->appendOperand(mapped(LSubst, D));
    if (OsrShim)
      XP->appendOperand(mapped(OSubst, D));
  }

  // --- 5. Rewrite remaining uses of the header defs: everything except
  // the original header (which dies) and the fresh clones (whose operands
  // were resolved at clone time).
  std::unordered_set<MBasicBlock *> LoopBlocks(Loop.Body.begin(),
                                               Loop.Body.end());
  auto ReplFor = [&](MInstr *D, MBasicBlock *UseBlock) {
    return LoopBlocks.count(UseBlock) ? BodyPhiOf[D] : ExitPhiOf[D];
  };
  for (MInstr *D : HeaderDefs) {
    std::vector<MInstr::Use> Snapshot = D->uses();
    for (const MInstr::Use &U : Snapshot) {
      if (U.ConsumerInstr) {
        MInstr *User = U.ConsumerInstr;
        if (User->block() == H || CloneSet.count(User))
          continue;
        User->setOperand(U.Index, ReplFor(D, User->block()));
      } else {
        MResumePoint *RP = U.ConsumerRP;
        MInstr *Owner = RP->Owner;
        if (Owner && (Owner->block() == H || CloneSet.count(Owner)))
          continue;
        MBasicBlock *UseBlock = Owner ? Owner->block() : Body;
        RP->replaceEntry(U.Index, ReplFor(D, UseBlock));
      }
    }
  }

  // --- 6. Control flow. ---
  for (size_t S = 0, E = PreTerm->numSuccessors(); S != E; ++S)
    if (PreTerm->successor(S) == H)
      PreTerm->setSuccessor(S, W);
  W->addPredecessor(Pre);

  MInstr *WTest = Graph.create(MirOp::Test, MIRType::None);
  WTest->appendOperand(mapped(WSubst, T->operand(0)));
  WTest->setSuccessor(0, TrueInLoop ? Body : Exit);
  WTest->setSuccessor(1, TrueInLoop ? Exit : Body);
  W->append(WTest);

  MInstr *LTest = Graph.create(MirOp::Test, MIRType::None);
  LTest->appendOperand(mapped(LSubst, T->operand(0)));
  LTest->setSuccessor(0, TrueInLoop ? Body : Exit);
  LTest->setSuccessor(1, TrueInLoop ? Exit : Body);
  Latch->append(LTest);

  if (OsrShim) {
    MInstr *OsrTerm = OsrPred->terminator();
    for (size_t S = 0, E = OsrTerm->numSuccessors(); S != E; ++S)
      if (OsrTerm->successor(S) == H)
        OsrTerm->setSuccessor(S, OsrShim);
    OsrShim->addPredecessor(OsrPred);
    // The shim must re-test the condition over the OSR frame values: OSR
    // can trigger on exactly the header visit where the loop condition is
    // false (e.g. an inner loop whose trip counter crossed the threshold
    // across outer iterations), and jumping straight into the rotated
    // body would then execute one extra iteration.
    MInstr *OTest = Graph.create(MirOp::Test, MIRType::None);
    OTest->appendOperand(mapped(OSubst, T->operand(0)));
    OTest->setSuccessor(0, TrueInLoop ? Body : Exit);
    OTest->setSuccessor(1, TrueInLoop ? Exit : Body);
    OsrShim->append(OTest);
  }

  // --- 7. Delete the old header. H's pred links to Pre/Latch/Osr are
  // stale but die with the block; its successor links were rewired above,
  // so clear the terminator's successors before removeBlock unlinks them
  // a second time.
  T->setSuccessor(0, nullptr);
  T->setSuccessor(1, nullptr);
  Graph.removeBlock(H);

  Body->setLoopHeader(true);
  return W;
}

} // namespace

void jitvs::runLoopInversion(MIRGraph &Graph) {
  // One dominator tree and one loop list serve the whole pass; each loop
  // is visited once, innermost (smallest body) first, ties in discovery
  // order. A rotation leaves the analysis of the loops still to come
  // valid except for one block, which the remap below patches:
  //  - the rotated header H dies and its wrapper W takes its place in
  //    every enclosing loop body: W has H's outside predecessor and H's
  //    two successors, so it lies in exactly the loops H lay in, and
  //    rotation keeps the dominance relation among the surviving blocks;
  //  - the OSR shim joins no loop: an OSR edge into H bypasses every
  //    header that could enclose H, so a loop entered by OSR has no
  //    natural enclosing loop;
  //  - the rotated loop itself (now headed by its body entry) is never
  //    worth re-trying: its latch ends in a Test, not a Goto.
  // The pass leaves the blocks' dominator information stale; every
  // later consumer rebuilds it.
  DominatorTree::build(Graph);
  std::vector<NaturalLoop> Loops = findNaturalLoops(Graph);
  std::stable_sort(Loops.begin(), Loops.end(),
                   [](const NaturalLoop &A, const NaturalLoop &B) {
                     return A.Body.size() < B.Body.size();
                   });

  // HeaderSlots[L]: the (loop, body position) pairs naming loop L's
  // header inside an enclosing loop's body.
  std::unordered_map<const MBasicBlock *, size_t> LoopOfHeader;
  for (size_t L = 0; L != Loops.size(); ++L)
    LoopOfHeader[Loops[L].Header] = L;
  std::vector<std::vector<std::pair<size_t, size_t>>> HeaderSlots(
      Loops.size());
  for (size_t L = 0; L != Loops.size(); ++L) {
    const std::vector<MBasicBlock *> &Body = Loops[L].Body;
    for (size_t Pos = 0; Pos != Body.size(); ++Pos) {
      auto It = LoopOfHeader.find(Body[Pos]);
      if (It != LoopOfHeader.end() && It->second != L)
        HeaderSlots[It->second].push_back({L, Pos});
    }
  }

  bool Changed = false;
  for (size_t L = 0; L != Loops.size(); ++L) {
    MBasicBlock *W = invertLoop(Graph, Loops[L]);
    if (!W)
      continue;
    Changed = true;
    for (auto [Outer, Pos] : HeaderSlots[L])
      Loops[Outer].Body[Pos] = W;
  }
  if (!Changed)
    return;

  // Clean up after the rotation: the merge phis created for header defs
  // that have no remaining uses would otherwise become per-iteration
  // parallel moves. Removing them (and any header-computation clones that
  // became unused) is part of the transformation, not of the separate
  // dead-code-elimination pass.
  bool Pruned = true;
  while (Pruned) {
    Pruned = false;
    for (MBasicBlock *B : Graph.liveBlocks()) {
      std::vector<MInstr *> Phis = B->phis();
      for (MInstr *Phi : Phis) {
        bool OnlySelfUses = true;
        for (const MInstr::Use &U : Phi->uses()) {
          if (U.ConsumerInstr != Phi) {
            OnlySelfUses = false;
            break;
          }
        }
        if (!OnlySelfUses)
          continue;
        B->removePhi(Phi);
        Pruned = true;
      }
    }
  }
  removeUnusedInstructions(Graph);
}
