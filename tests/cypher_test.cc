#include "query/cypher.h"

#include <gtest/gtest.h>

#include "jit/jit_query_engine.h"

namespace poseidon::query {
namespace {

using storage::PVal;
using storage::RecordId;

class CypherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto pool = pmem::Pool::CreateVolatile(256ull << 20);
    ASSERT_TRUE(pool.ok());
    pool_ = std::move(*pool);
    auto store = storage::GraphStore::Create(pool_.get());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    mgr_ = std::make_unique<tx::TransactionManager>(store_.get(), nullptr);
    auto engine = jit::JitQueryEngine::Create(store_.get(), nullptr, 2,
                                              /*cache=*/nullptr);
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(*engine);

    auto person = *store_->Code("Person");
    auto city = *store_->Code("City");
    auto knows = *store_->Code("knows");
    auto lives_in = *store_->Code("livesIn");
    auto id = *store_->Code("id");
    auto name = *store_->Code("name");
    auto age = *store_->Code("age");
    auto since = *store_->Code("since");

    auto tx = mgr_->Begin();
    RecordId c = *tx->CreateNode(
        city, {{id, PVal::Int(100)},
               {name, PVal::String(*store_->Code("Ilmenau"))}});
    RecordId persons[4];
    const char* names[] = {"ann", "bob", "cat", "dan"};
    for (int i = 0; i < 4; ++i) {
      persons[i] = *tx->CreateNode(
          person, {{id, PVal::Int(i)},
                   {name, PVal::String(*store_->Code(names[i]))},
                   {age, PVal::Int(20 + 10 * i)}});
      ASSERT_TRUE(tx->CreateRelationship(persons[i], c, lives_in, {}).ok());
    }
    for (int i = 0; i + 1 < 4; ++i) {
      ASSERT_TRUE(tx->CreateRelationship(persons[i], persons[i + 1], knows,
                                         {{since, PVal::Int(2000 + i)}})
                      .ok());
    }
    ASSERT_TRUE(tx->Commit().ok());
  }

  Result<QueryResult> Run(std::string_view text,
                          std::vector<Value> params = {}) {
    auto plan = ParseCypher(text, &store_->dict());
    if (!plan.ok()) return plan.status();
    auto tx = mgr_->Begin();
    auto r = engine_->Execute(*plan, tx.get(), params,
                              jit::ExecutionMode::kInterpret);
    if (r.ok()) EXPECT_TRUE(tx->Commit().ok());
    return r;
  }

  std::string Decode(const Value& v) {
    return v.ToString(&store_->dict());
  }

  std::unique_ptr<pmem::Pool> pool_;
  std::unique_ptr<storage::GraphStore> store_;
  std::unique_ptr<tx::TransactionManager> mgr_;
  std::unique_ptr<jit::JitQueryEngine> engine_;
};

TEST_F(CypherTest, CountAllOfLabel) {
  auto r = Run("MATCH (p:Person) RETURN COUNT(*)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 4);
}

TEST_F(CypherTest, PropertyMapFilter) {
  auto r = Run("MATCH (p:Person {id: 2}) RETURN p.name, p.age");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(Decode(r->rows[0][0]), "cat");
  EXPECT_EQ(r->rows[0][1].AsInt(), 40);
}

TEST_F(CypherTest, ParameterBinding) {
  auto r = Run("MATCH (p:Person {id: $0}) RETURN p.age", {Value::Int(3)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 50);
}

TEST_F(CypherTest, StringLiteralFilter) {
  auto r = Run("MATCH (p:Person) WHERE p.name = 'bob' RETURN p.id");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].AsInt(), 1);
}

TEST_F(CypherTest, OutgoingTraversalWithRelProperty) {
  auto r = Run(
      "MATCH (p:Person {id: 0})-[k:knows]->(f:Person) "
      "RETURN f.name, k.since");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(Decode(r->rows[0][0]), "bob");
  EXPECT_EQ(r->rows[0][1].AsInt(), 2000);
}

TEST_F(CypherTest, IncomingTraversal) {
  auto r = Run(
      "MATCH (c:City {id: 100})<-[:livesIn]-(p:Person) RETURN COUNT(*)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 4);
}

TEST_F(CypherTest, TwoHopPattern) {
  auto r = Run(
      "MATCH (a:Person {id: 0})-[:knows]->(b:Person)-[:knows]->(c:Person) "
      "RETURN c.name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(Decode(r->rows[0][0]), "cat");
}

TEST_F(CypherTest, WhereWithAndOrderLimit) {
  auto r = Run(
      "MATCH (p:Person) WHERE p.age >= 30 AND p.age <= 50 "
      "RETURN p.name, p.age ORDER BY p.age DESC LIMIT 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][1].AsInt(), 50);
  EXPECT_EQ(r->rows[1][1].AsInt(), 40);
}

TEST_F(CypherTest, IdFunctionAndBareVariable) {
  auto r = Run("MATCH (p:Person {id: 1}) RETURN id(p), p");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0].kind(), Value::Kind::kInt);
  EXPECT_EQ(r->rows[0][1].kind(), Value::Kind::kNode);
}

TEST_F(CypherTest, LimitWithoutOrder) {
  auto r = Run("MATCH (p:Person) RETURN p.id LIMIT 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 2u);
}

TEST_F(CypherTest, CaseInsensitiveKeywords) {
  auto r = Run("match (p:Person) where p.age > 35 return count(*)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0].AsInt(), 2);
}

TEST_F(CypherTest, UnknownLabelMatchesNothing) {
  auto r = Run("MATCH (x:Martian) RETURN COUNT(*)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->rows[0][0].AsInt(), 0);
}

TEST_F(CypherTest, ParsedPlanRunsUnderJit) {
  auto plan = ParseCypher(
      "MATCH (p:Person)-[k:knows]->(f:Person) WHERE f.age > 25 "
      "RETURN f.name, k.since",
      &store_->dict());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  auto tx = mgr_->Begin();
  auto aot = engine_->Execute(*plan, tx.get(), {},
                              jit::ExecutionMode::kInterpret);
  auto compiled =
      engine_->Execute(*plan, tx.get(), {}, jit::ExecutionMode::kJit);
  ASSERT_TRUE(aot.ok() && compiled.ok())
      << aot.status().ToString() << " / " << compiled.status().ToString();
  ASSERT_TRUE(tx->Commit().ok());
  EXPECT_EQ(aot->rows.size(), compiled->rows.size());
  EXPECT_EQ(compiled->rows.size(), 3u);
}

// --- Parse errors -------------------------------------------------------

TEST_F(CypherTest, ErrorsAreDiagnosed) {
  const char* bad[] = {
      "",                                         // empty
      "RETURN 1",                                 // no MATCH
      "MATCH (p:Person)",                         // no RETURN
      "MATCH (p:Person RETURN p.id",              // unbalanced paren
      "MATCH (p:Person) RETURN q.id",             // unknown variable
      "MATCH (p:Person) WHERE p.age >",           // missing value
      "MATCH (p:Person) RETURN p.id ORDER BY p.age",  // key not returned
      "MATCH (p:Person) RETURN p.name 'extra'",   // trailing tokens
      "MATCH (p:Person {name 'x'}) RETURN p.id",  // missing colon
  };
  for (const char* text : bad) {
    auto plan = ParseCypher(text, &store_->dict());
    EXPECT_FALSE(plan.ok()) << "should fail: " << text;
  }
}

TEST_F(CypherTest, UnterminatedStringFails) {
  auto plan = ParseCypher("MATCH (p:Person) WHERE p.name = 'oops RETURN p",
                          &store_->dict());
  EXPECT_FALSE(plan.ok());
}

}  // namespace
}  // namespace poseidon::query
