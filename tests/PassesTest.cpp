//===- tests/PassesTest.cpp - Per-pass unit tests --------------------------===//
///
/// \file
/// White-box tests of the optimization passes on MIR graphs built from
/// real programs: parameter specialization produces constants, constant
/// propagation folds guard chains, loop inversion rotates loops, DCE
/// removes the wrapping conditional and unreachable blocks, BCE obeys
/// the paper's aliasing rule, and closure inlining eliminates calls.
///
//===----------------------------------------------------------------------===//

#include "mir/Dominators.h"
#include "mir/MIRBuilder.h"
#include "mir/Verifier.h"
#include "passes/Passes.h"
#include "vm/Runtime.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace jitvs;

namespace {

/// Test fixture: loads a program, runs it to gather feedback, and exposes
/// graph-building helpers.
struct PassTester {
  explicit PassTester(const std::string &Source) {
    EXPECT_TRUE(RT.load(Source)) << RT.errorMessage();
    RT.run();
    EXPECT_FALSE(RT.hasError()) << RT.errorMessage();
  }

  FunctionInfo *function(const std::string &Name) {
    for (size_t I = 0; I != RT.program()->numFunctions(); ++I) {
      FunctionInfo *F = RT.program()->function(static_cast<uint32_t>(I));
      if (F->Name == Name)
        return F;
    }
    return nullptr;
  }

  std::unique_ptr<MIRGraph> build(const std::string &Name,
                                  std::vector<Value> SpecArgs = {}) {
    FunctionInfo *F = function(Name);
    EXPECT_NE(F, nullptr) << "no function " << Name;
    BuildOptions Opts;
    if (!SpecArgs.empty())
      Opts.SpecializedArgs = std::move(SpecArgs);
    return buildMIR(F, Opts);
  }

  Runtime RT;
};

size_t countOps(const MIRGraph &G, MirOp Op) {
  size_t N = 0;
  for (const auto &B : G.blocks()) {
    if (B->isDead())
      continue;
    for (const MInstr *I : B->phis())
      if (I->op() == Op)
        ++N;
    for (const MInstr *I : B->instructions())
      if (I->op() == Op)
        ++N;
  }
  return N;
}

TEST(ParameterSpecialization, ParamsBecomeConstants) {
  PassTester T("function f(a, b) { return a + b; }"
               "for (var i = 0; i < 10; i++) f(3, 4);");
  auto Generic = T.build("f");
  EXPECT_EQ(countOps(*Generic, MirOp::Parameter), 2u);

  auto Spec = T.build("f", {Value::int32(3), Value::int32(4)});
  EXPECT_EQ(countOps(*Spec, MirOp::Parameter), 0u);
}

TEST(ParameterSpecialization, MissingArgsAreUndefined) {
  PassTester T("function f(a, b) { return b; }"
               "for (var i = 0; i < 10; i++) f(1);");
  auto Spec = T.build("f", {Value::int32(1)});
  EXPECT_EQ(countOps(*Spec, MirOp::Parameter), 0u);
}

TEST(ConstantPropagation, FoldsSpecializedArithmetic) {
  PassTester T("function f(a, b) { return a * b + a; }"
               "for (var i = 0; i < 10; i++) f(6, 7);");
  auto G = T.build("f", {Value::int32(6), Value::int32(7)});
  runGVN(*G);
  runConstantPropagation(*G, T.RT);
  // Everything folds: no arithmetic remains; the return's operand is the
  // constant 48.
  EXPECT_EQ(countOps(*G, MirOp::MulI) + countOps(*G, MirOp::AddI) +
                countOps(*G, MirOp::GenericBinop),
            0u);
  bool Found48 = false;
  for (const auto &B : G->blocks()) {
    if (B->isDead())
      continue;
    for (const MInstr *I : B->instructions())
      if (I->op() == MirOp::Constant && I->constValue().isInt32() &&
          I->constValue().asInt32() == 48)
        Found48 = true;
  }
  EXPECT_TRUE(Found48);
}

TEST(ConstantPropagation, FoldsTypeGuards) {
  // Figure 7(b): the typeof and unbox guards on constants disappear.
  PassTester T("function f(x) { return typeof x == 'number' ? x + 1 : 0; }"
               "for (var i = 0; i < 10; i++) f(5);");
  auto G = T.build("f", {Value::int32(5)});
  runGVN(*G);
  runConstantPropagation(*G, T.RT);
  EXPECT_EQ(countOps(*G, MirOp::Unbox), 0u);
  EXPECT_EQ(countOps(*G, MirOp::TypeOf), 0u);
}

TEST(ConstantPropagation, DoesNotFoldOverflowingInt32) {
  // Folding AddI to a value outside int32 would break downstream typed
  // consumers; the fold must be skipped (the guard bails at runtime).
  PassTester T("function f(a) { return (a + a) | 0; }"
               "for (var i = 0; i < 10; i++) f(5);");
  auto G = T.build("f", {Value::int32(2000000000)});
  runGVN(*G);
  runConstantPropagation(*G, T.RT);
  // The AddI survives (its folding would produce a double).
  EXPECT_EQ(countOps(*G, MirOp::AddI), 1u);
}

TEST(LoopInversion, RotatesWhileLoop) {
  PassTester T("function f(n) { var s = 0;"
               "  var i = 0;"
               "  while (i < n) { s += i; i++; }"
               "  return s; }"
               "for (var k = 0; k < 10; k++) f(50);");
  auto G = T.build("f");
  runGVN(*G);
  size_t TestsBefore = countOps(*G, MirOp::Test);
  runLoopInversion(*G);
  // Rotation duplicates the loop test: wrapper + latch.
  EXPECT_EQ(countOps(*G, MirOp::Test), TestsBefore + 1);
  // The graph still verifies basic block invariants: every live block has
  // a terminator.
  for (const auto &B : G->blocks()) {
    if (B->isDead())
      continue;
    ASSERT_NE(B->terminator(), nullptr);
    EXPECT_TRUE(B->terminator()->isControl());
  }
}

TEST(LoopInversion, SkipsLoopsWithBreaks) {
  // The exit block has two predecessors (header + break): not rotatable.
  PassTester T("function f(n) { var i = 0;"
               "  while (i < n) { if (i == 3) break; i++; }"
               "  return i; }"
               "for (var k = 0; k < 10; k++) f(50);");
  auto G = T.build("f");
  runGVN(*G);
  size_t TestsBefore = countOps(*G, MirOp::Test);
  runLoopInversion(*G);
  EXPECT_EQ(countOps(*G, MirOp::Test), TestsBefore);
}

/// \returns how many of the graph's natural loops are rotated (their latch
/// ends in the loop test rather than a Goto to the header), and how many
/// loops there are.
std::pair<size_t, size_t> rotatedLoops(MIRGraph &G) {
  DominatorTree::build(G);
  std::vector<NaturalLoop> Loops = findNaturalLoops(G);
  size_t Rotated = 0;
  for (const NaturalLoop &L : Loops) {
    const MInstr *Term = L.BackEdgePreds.front()->terminator();
    if (Term && Term->op() == MirOp::Test)
      ++Rotated;
  }
  return {Rotated, Loops.size()};
}

TEST(LoopInversion, RotatesSiblingAndNestedLoopsInOnePass) {
  // Three sibling loops, then a 3-deep nest: six rotatable loops, each
  // gaining exactly one Test (wrapper + latch replace the header test).
  PassTester T("function f(n) { var s = 0;"
               "  var a = 0; while (a < n) { s += a; a++; }"
               "  var b = 0; while (b < n) { s += b; b++; }"
               "  var c = 0; while (c < n) { s += c; c++; }"
               "  var i = 0;"
               "  while (i < n) { var j = 0;"
               "    while (j < n) { var k = 0;"
               "      while (k < n) { s += k; k++; }"
               "      j++; }"
               "    i++; }"
               "  return s; }"
               "for (var q = 0; q < 10; q++) f(4);");
  auto G = T.build("f");
  runGVN(*G);
  EXPECT_EQ(rotatedLoops(*G), std::make_pair(size_t(0), size_t(6)));
  size_t TestsBefore = countOps(*G, MirOp::Test);
  runLoopInversion(*G);
  EXPECT_EQ(countOps(*G, MirOp::Test), TestsBefore + 6);
  EXPECT_EQ(verifyGraph(*G), "");
  EXPECT_EQ(rotatedLoops(*G), std::make_pair(size_t(6), size_t(6)));
}

TEST(LoopInversion, SkippedInnerLoopLeavesEnclosingLoopsRotatable) {
  // The innermost loop breaks (two exits), so it keeps its shape; the
  // two loops around it are still rotated.
  PassTester T("function f(n) { var s = 0;"
               "  var i = 0;"
               "  while (i < n) { var j = 0;"
               "    while (j < n) { var k = 0;"
               "      while (k < n) { if (k == 2) break; s += k; k++; }"
               "      j++; }"
               "    i++; }"
               "  return s; }"
               "for (var q = 0; q < 10; q++) f(4);");
  auto G = T.build("f");
  runGVN(*G);
  size_t TestsBefore = countOps(*G, MirOp::Test);
  runLoopInversion(*G);
  EXPECT_EQ(countOps(*G, MirOp::Test), TestsBefore + 2);
  EXPECT_EQ(verifyGraph(*G), "");
  EXPECT_EQ(rotatedLoops(*G), std::make_pair(size_t(2), size_t(3)));
}

TEST(DeadCodeElim, RemovesWrappingConditional) {
  // Under specialization the loop provably runs: after inversion, DCE
  // folds the wrapper (the paper's Section 3.4 observation).
  PassTester T("function f(b, n) { var s = 0;"
               "  for (var i = b; i < n; i++) s += i;"
               "  return s; }"
               "for (var k = 0; k < 10; k++) f(2, 5);");
  auto G = T.build("f", {Value::int32(2), Value::int32(5)});
  runGVN(*G);
  runConstantPropagation(*G, T.RT);
  runLoopInversion(*G);
  size_t BlocksBefore = G->numBlocks();
  runDeadCodeElimination(*G, T.RT);
  // The wrapper's test folds to "enter the loop"; only the latch test
  // remains.
  EXPECT_EQ(countOps(*G, MirOp::Test), 1u);
  EXPECT_LE(G->numBlocks(), BlocksBefore);
}

TEST(DeadCodeElim, RemovesUnreachableBranchesUnderSpecialization) {
  PassTester T("function f(flag) {"
               "  if (flag) return 1;"
               "  var s = 0;"
               "  for (var i = 0; i < 100; i++) s += i;"
               "  return s; }"
               "for (var k = 0; k < 10; k++) f(true);");
  auto G = T.build("f", {Value::boolean(true)});
  runGVN(*G);
  runConstantPropagation(*G, T.RT);
  runDeadCodeElimination(*G, T.RT);
  // The whole loop is gone.
  DominatorTree::build(*G);
  EXPECT_TRUE(findNaturalLoops(*G).empty());
  EXPECT_LE(G->numBlocks(), 3u);
}

TEST(DeadCodeElim, KeepsFunctionEntryBlock) {
  PassTester T("function f(n) { return n + 1; }"
               "for (var k = 0; k < 10; k++) f(1);");
  auto G = T.build("f", {Value::int32(1)});
  runGVN(*G);
  runConstantPropagation(*G, T.RT);
  runDeadCodeElimination(*G, T.RT);
  ASSERT_NE(G->entry(), nullptr);
  EXPECT_FALSE(G->entry()->isDead());
}

TEST(BoundsCheckElim, PaperRuleRejectsStores) {
  // The paper: "if there exists any store instruction in the script...
  // elimination is considered unsafe and is not performed".
  PassTester T("function f(a) {"
               "  for (var i = 0; i < 5; i++) a[i] = a[i] + 1;"
               "  return a; }"
               "var arr = new Array(1, 2, 3, 4, 5);"
               "for (var k = 0; k < 10; k++) f(arr);");
  Value Arr = T.RT.global(T.RT.program()->globalSlot("arr"));
  auto G = T.build("f", {Arr});
  runGVN(*G);
  runConstantPropagation(*G, T.RT);
  size_t Before = countOps(*G, MirOp::BoundsCheck);
  ASSERT_GT(Before, 0u);
  runBoundsCheckElimination(*G, /*RelaxedAliasing=*/false);
  EXPECT_EQ(countOps(*G, MirOp::BoundsCheck), Before); // Unchanged.
}

TEST(BoundsCheckElim, RelaxedRuleEliminatesWithEntryGuard) {
  PassTester T("function f(a) {"
               "  for (var i = 0; i < 5; i++) a[i] = a[i] + 1;"
               "  return a; }"
               "var arr = new Array(1, 2, 3, 4, 5);"
               "for (var k = 0; k < 10; k++) f(arr);");
  Value Arr = T.RT.global(T.RT.program()->globalSlot("arr"));
  auto G = T.build("f", {Arr});
  runGVN(*G);
  runConstantPropagation(*G, T.RT);
  ASSERT_GT(countOps(*G, MirOp::BoundsCheck), 0u);
  runBoundsCheckElimination(*G, /*RelaxedAliasing=*/true);
  EXPECT_EQ(countOps(*G, MirOp::BoundsCheck), 0u);
  // One revalidation guard at the function entry block.
  EXPECT_GE(countOps(*G, MirOp::GuardArrayLength), 1u);
}

TEST(BoundsCheckElim, PureReadLoopEliminates) {
  // No stores at all: even the paper's strict rule permits elimination.
  PassTester T("function f(a) { var s = 0;"
               "  for (var i = 0; i < 5; i++) s += a[i];"
               "  return s; }"
               "var arr = new Array(1, 2, 3, 4, 5);"
               "for (var k = 0; k < 10; k++) f(arr);");
  Value Arr = T.RT.global(T.RT.program()->globalSlot("arr"));
  auto G = T.build("f", {Arr});
  runGVN(*G);
  runConstantPropagation(*G, T.RT);
  ASSERT_GT(countOps(*G, MirOp::BoundsCheck), 0u);
  runBoundsCheckElimination(*G, /*RelaxedAliasing=*/false);
  EXPECT_EQ(countOps(*G, MirOp::BoundsCheck), 0u);
  EXPECT_GE(countOps(*G, MirOp::GuardArrayLength), 1u);
}

TEST(BoundsCheckElim, RespectsLoopBound) {
  // Bound 6 exceeds the array length 5: checks must stay.
  PassTester T("function f(a) { var s = 0;"
               "  for (var i = 0; i < 6; i++) s += a[i];"
               "  return s; }"
               "var arr = new Array(1, 2, 3, 4, 5);"
               "for (var k = 0; k < 3; k++) f(arr);");
  Value Arr = T.RT.global(T.RT.program()->globalSlot("arr"));
  auto G = T.build("f", {Arr});
  runGVN(*G);
  runConstantPropagation(*G, T.RT);
  size_t Before = countOps(*G, MirOp::BoundsCheck);
  runBoundsCheckElimination(*G, /*RelaxedAliasing=*/false);
  EXPECT_EQ(countOps(*G, MirOp::BoundsCheck), Before);
}

TEST(Inliner, InlinesConstantClosure) {
  PassTester T("function inc(x) { return x + 1; }"
               "function apply(f, v) { return f(v); }"
               "for (var k = 0; k < 10; k++) apply(inc, k);");
  Value Inc = T.RT.global(T.RT.program()->globalSlot("inc"));
  auto G = T.build("apply", {Inc, Value::int32(1)});
  OptConfig C = OptConfig::all();
  unsigned N = runClosureInlining(*G, T.RT, C);
  EXPECT_EQ(N, 1u);
  EXPECT_EQ(countOps(*G, MirOp::Call), 0u);
}

TEST(Inliner, InlinedReturnSurvivesPhiPruning) {
  // Regression (fuzzer seed 886): the callee returns a parameter that
  // crosses a loop join unassigned, so SSA construction routes it
  // through a placeholder phi that trivial-phi pruning later removes.
  // The builder's inline return record held a raw pointer to that phi;
  // pruning rewired every *operand* use but not the record, and the
  // inliner wired the caller's result to a def in no block — read as
  // an uninitialized register at runtime. The verifier must find every
  // use reachable after inlining.
  PassTester T("var g = 0;"
               "function callee(a, b) {"
               "  while (g < 0) { a = a + 1; g = g + 1; }"
               "  return b; }"
               "function caller(f, x) { return x + f(1); }"
               "for (var i = 0; i < 10; i++) caller(callee, i);");
  Value Callee = T.RT.global(T.RT.program()->globalSlot("callee"));
  auto G = T.build("caller", {Callee, Value::int32(3)});
  unsigned N = runClosureInlining(*G, T.RT, OptConfig::all());
  EXPECT_EQ(N, 1u);
  EXPECT_EQ(verifyGraph(*G), "");
}

TEST(Inliner, RefusesEnvironmentUsers) {
  PassTester T("function make(k) { return function(x) { return x + k; }; }"
               "function apply(f, v) { return f(v); }"
               "var add3 = make(3);"
               "for (var k = 0; k < 10; k++) apply(add3, k);");
  Value Add3 = T.RT.global(T.RT.program()->globalSlot("add3"));
  auto G = T.build("apply", {Add3, Value::int32(1)});
  OptConfig C = OptConfig::all();
  EXPECT_EQ(runClosureInlining(*G, T.RT, C), 0u);
  EXPECT_EQ(countOps(*G, MirOp::Call), 1u); // Call survives.
}

TEST(Inliner, RefusesNonConstantCallee) {
  PassTester T("function inc(x) { return x + 1; }"
               "function apply(f, v) { return f(v); }"
               "for (var k = 0; k < 10; k++) apply(inc, k);");
  auto G = T.build("apply"); // Generic: callee is a Parameter.
  OptConfig C = OptConfig::all();
  EXPECT_EQ(runClosureInlining(*G, T.RT, C), 0u);
}

TEST(GVN, DeduplicatesCongruentGuards) {
  PassTester T("function f(x) { return x * x + x * x; }"
               "for (var k = 0; k < 10; k++) f(7);");
  auto G = T.build("f");
  size_t UnboxBefore = countOps(*G, MirOp::Unbox);
  size_t MulBefore = countOps(*G, MirOp::MulI);
  runGVN(*G);
  EXPECT_LT(countOps(*G, MirOp::Unbox), UnboxBefore);
  EXPECT_LT(countOps(*G, MirOp::MulI), MulBefore);
}

TEST(Dominators, LoopDetection) {
  PassTester T("function f(n) {"
               "  var s = 0;"
               "  for (var i = 0; i < n; i++)"
               "    for (var j = 0; j < n; j++)"
               "      s += i * j;"
               "  return s; }"
               "f(3);");
  auto G = T.build("f");
  DominatorTree::build(*G);
  std::vector<NaturalLoop> Loops = findNaturalLoops(*G);
  EXPECT_EQ(Loops.size(), 2u);
  // Entry dominates everything reachable from it.
  for (const auto &B : G->blocks()) {
    if (!B->isDead() && B.get() != G->entry()) {
      EXPECT_TRUE(G->entry()->dominates(B.get()));
    }
  }
}

TEST(OverflowCheckElim, RemovesProvablyInRangeChecks) {
  PassTester T("function f(a) { var s = 0;"
               "  for (var i = 0; i < 100; i++) s = i + 1;"
               "  return s; }"
               "for (var k = 0; k < 10; k++) f(1);");
  auto G = T.build("f");
  runGVN(*G);
  unsigned Removed = runOverflowCheckElimination(*G);
  // i is an induction variable in [0, 100]; i + 1 cannot overflow, and
  // the increment i++ itself is bounded too.
  EXPECT_GE(Removed, 1u);
}

TEST(OverflowCheckElim, KeepsUnboundedAccumulators) {
  PassTester T("function f(n) { var s = 0;"
               "  for (var i = 0; i < n; i++) s = s + i;"
               "  return s; }"
               "for (var k = 0; k < 10; k++) f(10);");
  auto G = T.build("f"); // n unknown: no constant bound.
  runGVN(*G);
  size_t CheckedBefore = 0, CheckedAfter = 0;
  for (const auto &B : G->blocks())
    if (!B->isDead())
      for (const MInstr *I : B->instructions())
        if (I->op() == MirOp::AddI && I->AuxB == 0)
          ++CheckedBefore;
  runOverflowCheckElimination(*G);
  for (const auto &B : G->blocks())
    if (!B->isDead())
      for (const MInstr *I : B->instructions())
        if (I->op() == MirOp::AddI && I->AuxB == 0)
          ++CheckedAfter;
  // The accumulator's add must stay checked (its range is unknown).
  EXPECT_GE(CheckedAfter, 1u);
  EXPECT_LE(CheckedAfter, CheckedBefore);
}

TEST(OverflowCheckElim, SpecializationEnablesElimination) {
  // Sol et al.'s point, in the paper's setting: with the bound constant
  // (via parameter specialization) the accumulator pattern's increment
  // becomes provably safe.
  PassTester T("function f(n) { var s = 0;"
               "  for (var i = 0; i < n; i++) s = i * 2 + 1;"
               "  return s; }"
               "for (var k = 0; k < 10; k++) f(1000);");
  auto Generic = T.build("f");
  runGVN(*Generic);
  unsigned GenericRemoved = runOverflowCheckElimination(*Generic);

  auto Spec = T.build("f", {Value::int32(1000)});
  runGVN(*Spec);
  runConstantPropagation(*Spec, T.RT);
  unsigned SpecRemoved = runOverflowCheckElimination(*Spec);
  EXPECT_GT(SpecRemoved, GenericRemoved);
}

TEST(OverflowCheckElim, InnerBranchDoesNotBoundInduction) {
  // Regression: an `if (i < K)` nested inside the loop body compares
  // the induction phi against a constant, but both of its successors
  // stay in the loop — iterations keep running (and incrementing i)
  // after the test fails, so it must NOT be taken as a bound. Only the
  // genuinely loop-controlling test (true stays in, false exits) may
  // bound the phi. Here the loop exit compares against the unknown
  // parameter n, so i has no provable range and i * 1000000 must keep
  // its overflow check.
  PassTester T("function f(n) { var t = 0;"
               "  for (var i = 0; i != n; i = i + 1) {"
               "    if (i < 3) { t = t + 1; }"
               "    t = t + i * 1000000;"
               "  } return t; }"
               "for (var k = 0; k < 10; k++) f(5);");
  auto G = T.build("f");
  runGVN(*G);
  runOverflowCheckElimination(*G);
  size_t CheckedMuls = 0;
  for (const auto &B : G->blocks())
    if (!B->isDead())
      for (const MInstr *I : B->instructions())
        if (I->op() == MirOp::MulI && I->AuxB == 0)
          ++CheckedMuls;
  EXPECT_GE(CheckedMuls, 1u);
}

TEST(GVN, KeepsNaNConstantsApart) {
  // NaN != NaN: two NaN-valued constants are never congruent, even
  // though specialization-cache keying treats them as the same baked
  // value. Merging them would let later folds treat two NaNs as one
  // value in contexts where identity matters.
  double NaNV = std::numeric_limits<double>::quiet_NaN();
  PassTester T("function f(a, b) { return a + b; }"
               "for (var k = 0; k < 10; k++) f(0.5, 0.25);");
  auto G = T.build("f", {Value::makeDouble(NaNV), Value::makeDouble(NaNV)});
  runGVN(*G);
  size_t NaNConsts = 0;
  for (const auto &B : G->blocks())
    if (!B->isDead())
      for (const MInstr *I : B->instructions())
        if (I->op() == MirOp::Constant && I->constValue().isDouble() &&
            std::isnan(I->constValue().asDouble()))
          ++NaNConsts;
  EXPECT_EQ(NaNConsts, 2u);
}

TEST(GVN, KeepsSignedZeroConstantsApart) {
  // +0 and -0 are distinct constants (observable through 1/x); GVN
  // must never merge them. sameSpecializationValue is bitwise on
  // doubles, so this pins that congruence stays bitwise too.
  PassTester T("function f(a, b) { return a + b; }"
               "for (var k = 0; k < 10; k++) f(0.5, 0.25);");
  auto G = T.build("f", {Value::makeDouble(0.0), Value::makeDouble(-0.0)});
  runGVN(*G);
  bool SawPos = false, SawNeg = false;
  for (const auto &B : G->blocks())
    if (!B->isDead())
      for (const MInstr *I : B->instructions())
        if (I->op() == MirOp::Constant && I->constValue().isDouble() &&
            I->constValue().asDouble() == 0.0) {
          if (std::signbit(I->constValue().asDouble()))
            SawNeg = true;
          else
            SawPos = true;
        }
  EXPECT_TRUE(SawPos);
  EXPECT_TRUE(SawNeg);
}

TEST(Figure9Configs, TenConfigsMatchingTheTable) {
  std::vector<NamedConfig> Cs = figure9Configs();
  ASSERT_EQ(Cs.size(), 10u);
  EXPECT_STREQ(Cs[0].Name, "PS");
  EXPECT_STREQ(Cs[1].Name, "CP"); // "the third column": CP alone.
  EXPECT_FALSE(Cs[1].Config.ParameterSpecialization);
  EXPECT_TRUE(Cs[1].Config.ConstantPropagation);
  EXPECT_STREQ(Cs[9].Name, "ALL");
  EXPECT_TRUE(Cs[9].Config.BoundsCheckElim);
  // Every config keeps the baseline GVN on, as in the paper.
  for (const NamedConfig &NC : Cs)
    EXPECT_TRUE(NC.Config.GlobalValueNumbering);
}

} // namespace
