#include <gtest/gtest.h>

#include "pmem/latency_model.h"
#include "util/spin_timer.h"
#include "query/plan.h"
#include "query/value.h"

namespace poseidon::query {
namespace {

// --- Value ----------------------------------------------------------------

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(-5).AsInt(), -5);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String(9).AsString(), 9u);
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_EQ(Value::Node(77).AsRecordId(), 77u);
  EXPECT_EQ(Value::Rel(78).AsRecordId(), 78u);
}

TEST(ValueTest, PValRoundTrip) {
  storage::PVal cases[] = {
      storage::PVal::Null(),      storage::PVal::Int(-100),
      storage::PVal::Double(1.5), storage::PVal::String(3),
      storage::PVal::Bool(true),
  };
  for (const auto& p : cases) {
    storage::PVal back = Value::FromPVal(p).ToPVal();
    EXPECT_EQ(back, p);
  }
}

TEST(ValueTest, FromRawReconstructs) {
  Value v = Value::Double(3.75);
  Value r = Value::FromRaw(static_cast<uint8_t>(v.kind()), v.raw());
  EXPECT_TRUE(v == r);
  EXPECT_DOUBLE_EQ(r.AsDouble(), 3.75);
}

TEST(ValueTest, NumericCompareCrossesIntAndDouble) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Double(2.0)), 0);
  EXPECT_LT(Value::Int(1).Compare(Value::Double(1.5)), 0);
  EXPECT_GT(Value::Double(3.1).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, NegativeIntsOrder) {
  EXPECT_LT(Value::Int(-10).Compare(Value::Int(-1)), 0);
  EXPECT_LT(Value::Int(-1).Compare(Value::Int(0)), 0);
}

TEST(ValueTest, ToStringWithoutDictionary) {
  EXPECT_EQ(Value::Null().ToString(), "null");
  EXPECT_EQ(Value::Int(3).ToString(), "3");
  EXPECT_EQ(Value::Node(5).ToString(), "node(5)");
  EXPECT_EQ(Value::String(2).ToString(), "str#2");
}

// --- Plan / signature -------------------------------------------------------

TEST(PlanTest, CountOpsIncludesBuildSide) {
  Plan build = PlanBuilder().NodeScan(1).Project({Expr::Column(0)}).Build();
  Plan p = PlanBuilder()
               .NodeScan(2)
               .HashJoin(std::move(build), 0, 0)
               .Count()
               .Build();
  EXPECT_EQ(p.CountOps(), 5);
}

TEST(PlanTest, SourceIsDeepestInput) {
  Plan p = PlanBuilder()
               .NodeScan(3)
               .FilterProperty(0, 1, CmpOp::kEq, Expr::Param(0))
               .Count()
               .Build();
  ASSERT_NE(p.Source(), nullptr);
  EXPECT_EQ(p.Source()->kind, OpKind::kNodeScan);
  EXPECT_EQ(p.Source()->label, 3u);
}

TEST(PlanTest, SignatureDistinguishesStructure) {
  auto scan_count = [] {
    return PlanBuilder().NodeScan(1).Count().Build();
  };
  Plan filter_plan = PlanBuilder()
                         .NodeScan(1)
                         .FilterProperty(0, 2, CmpOp::kLt,
                                         Expr::Literal(Value::Int(5)))
                         .Count()
                         .Build();
  EXPECT_EQ(scan_count().Signature(), scan_count().Signature());
  EXPECT_NE(scan_count().Signature(), filter_plan.Signature());

  // Different literal -> different signature; different param INDEX ->
  // different; same param index -> same.
  Plan lit_a = PlanBuilder()
                   .NodeScan(1)
                   .FilterProperty(0, 2, CmpOp::kEq,
                                   Expr::Literal(Value::Int(1)))
                   .Build();
  Plan lit_b = PlanBuilder()
                   .NodeScan(1)
                   .FilterProperty(0, 2, CmpOp::kEq,
                                   Expr::Literal(Value::Int(2)))
                   .Build();
  EXPECT_NE(lit_a.Signature(), lit_b.Signature());
  Plan par_a = PlanBuilder()
                   .NodeScan(1)
                   .FilterProperty(0, 2, CmpOp::kEq, Expr::Param(0))
                   .Build();
  Plan par_b = PlanBuilder()
                   .NodeScan(1)
                   .FilterProperty(0, 2, CmpOp::kEq, Expr::Param(1))
                   .Build();
  EXPECT_NE(par_a.Signature(), par_b.Signature());
}

TEST(PlanTest, SignatureCoversJoinBuildSide) {
  auto mk = [](storage::DictCode build_label) {
    Plan build = PlanBuilder().NodeScan(build_label).Build();
    return PlanBuilder().NodeScan(1).HashJoin(std::move(build), 0, 0).Build();
  };
  EXPECT_NE(mk(5).Signature(), mk(6).Signature());
}

TEST(PlanTest, DirectionAndLabelsInSignature) {
  auto mk = [](Direction d, storage::DictCode rel) {
    return PlanBuilder().NodeScan(1).Expand(0, d, rel).Build();
  };
  EXPECT_NE(mk(Direction::kOut, 4).Signature(),
            mk(Direction::kIn, 4).Signature());
  EXPECT_NE(mk(Direction::kOut, 4).Signature(),
            mk(Direction::kOut, 5).Signature());
}

TEST(PlanTest, ToStringAnnotatesPipelineSources) {
  Plan p = PlanBuilder()
               .IndexRangeScan(7, 8, Expr::Literal(Value::Int(1)),
                               Expr::Literal(Value::Int(9)))
               .Count()
               .Build();
  // Without an annotation, EXPLAIN output is unchanged.
  std::string plain = p.ToString();
  EXPECT_NE(plain.find("IndexRangeScan"), std::string::npos);
  EXPECT_EQ(plain.find("parallel="), std::string::npos);

  ExplainAnnotation ann;
  ann.threads = 4;
  ann.morsel = 2048;
  std::string annotated = p.ToString(nullptr, &ann);
  EXPECT_NE(annotated.find(
                "[parallel=4, morsel=2048, rts=eager skip=0 defer=0]"),
            std::string::npos);
  EXPECT_EQ(annotated.find("batch="), std::string::npos);

  // Only the pipeline source gets the suffix — exactly one occurrence, on
  // the scan line, and join build sides are excluded.
  Plan build = PlanBuilder().NodeScan(2).Build();
  Plan join = PlanBuilder()
                  .NodeScan(1)
                  .HashJoin(std::move(build), 0, 0)
                  .Count()
                  .Build();
  std::string js = join.ToString(nullptr, &ann);
  size_t first = js.find("[parallel=");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(js.find("[parallel=", first + 1), std::string::npos);
}

// --- Latency model ----------------------------------------------------------

TEST(LatencyModelTest, DramModelIsDisabled) {
  auto m = pmem::LatencyModel::Dram();
  EXPECT_FALSE(m.enabled());
}

TEST(LatencyModelTest, EmulatedPmemChargesBlockReads) {
  pmem::LatencyModel m;
  m.read_block_ns = 200000;  // exaggerated for measurement: 200 us / block
  alignas(256) static char region[4096];

  // First touch of a block pays; an immediately repeated touch of the SAME
  // block is buffer-hot (C3 write-combining buffer model).
  StopWatch w;
  m.OnRead(region, 64);
  double first = w.ElapsedUs();
  w.Reset();
  m.OnRead(region + 64, 64);  // same 256 B block
  double repeat = w.ElapsedUs();
  EXPECT_GT(first, 150.0);
  EXPECT_LT(repeat, 50.0);

  // Touching a different block pays again.
  w.Reset();
  m.OnRead(region + 1024, 64);
  EXPECT_GT(w.ElapsedUs(), 150.0);
}

TEST(LatencyModelTest, MultiBlockReadChargesPerBlock) {
  pmem::LatencyModel m;
  m.read_block_ns = 100000;  // 100 us per block
  alignas(256) static char region[4096];
  m.OnRead(region + 2048, 1);  // move the buffer away
  StopWatch w;
  m.OnRead(region, 512);  // two fresh blocks
  double t = w.ElapsedUs();
  EXPECT_GT(t, 180.0);
  // Upper bound guards against gross overcharging (per-byte would be
  // ~51 ms); generous because a preemption mid-measurement inflates the
  // wall clock by whole scheduler quanta on a loaded single-core host.
  EXPECT_LT(t, 20000.0);
}

}  // namespace
}  // namespace poseidon::query
