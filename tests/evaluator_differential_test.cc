// Differential testing of the NDL evaluator: random nonrecursive programs
// are evaluated both by the bottom-up engine and via their PE unfolding
// (an independent relational-algebra implementation); results must match.

#include <gtest/gtest.h>

#include <random>

#include "data/data_instance.h"
#include "ndl/evaluator.h"
#include "ndl/program.h"
#include "ndl/skinny.h"
#include "ndl/transforms.h"
#include "pe/pe_formula.h"

namespace owlqr {
namespace {

struct RandomProgram {
  Vocabulary vocab;
  NdlProgram program{&vocab};
};

std::unique_ptr<RandomProgram> MakeRandomProgram(std::mt19937_64* rng) {
  auto rp = std::make_unique<RandomProgram>();
  NdlProgram& p = rp->program;
  std::vector<int> edb;
  edb.push_back(p.AddConceptPredicate(rp->vocab.InternConcept("A")));
  edb.push_back(p.AddConceptPredicate(rp->vocab.InternConcept("B")));
  edb.push_back(p.AddRolePredicate(rp->vocab.InternPredicate("R")));
  edb.push_back(p.AddRolePredicate(rp->vocab.InternPredicate("S")));

  // Layered IDB predicates: layer k may use EDBs and layers < k.
  std::vector<int> idb;
  int layers = 2 + static_cast<int>((*rng)() % 2);
  for (int layer = 0; layer < layers; ++layer) {
    int arity = 1 + static_cast<int>((*rng)() % 2);
    int pred = p.AddIdbPredicate("I" + std::to_string(layer), arity);
    int clauses = 1 + static_cast<int>((*rng)() % 2);
    for (int c = 0; c < clauses; ++c) {
      NdlClause clause;
      clause.head.predicate = pred;
      int num_vars = arity + 1 + static_cast<int>((*rng)() % 2);
      for (int i = 0; i < arity; ++i) {
        clause.head.args.push_back(
            Term::Var(static_cast<int>((*rng)() % num_vars)));
      }
      int atoms = 1 + static_cast<int>((*rng)() % 3);
      for (int a = 0; a < atoms; ++a) {
        int choice = static_cast<int>((*rng)() % (edb.size() + idb.size()));
        int atom_pred = choice < static_cast<int>(edb.size())
                            ? edb[choice]
                            : idb[choice - edb.size()];
        NdlAtom atom;
        atom.predicate = atom_pred;
        for (int i = 0; i < p.predicate(atom_pred).arity; ++i) {
          atom.args.push_back(
              Term::Var(static_cast<int>((*rng)() % num_vars)));
        }
        clause.body.push_back(std::move(atom));
      }
      p.AddClause(std::move(clause));
    }
    idb.push_back(pred);
  }
  p.SetGoal(idb.back());
  EnsureSafety(&p);
  return rp;
}

DataInstance MakeRandomData(Vocabulary* vocab, std::mt19937_64* rng) {
  DataInstance data(vocab);
  std::vector<int> inds;
  for (int i = 0; i < 4; ++i) {
    inds.push_back(data.AddIndividual("d" + std::to_string(i)));
  }
  for (int i = 0; i < 6; ++i) {
    switch ((*rng)() % 4) {
      case 0:
        data.AddConceptAssertion(vocab->FindConcept("A"),
                                 inds[(*rng)() % 4]);
        break;
      case 1:
        data.AddConceptAssertion(vocab->FindConcept("B"),
                                 inds[(*rng)() % 4]);
        break;
      case 2:
        data.AddRoleAssertion(vocab->FindPredicate("R"), inds[(*rng)() % 4],
                              inds[(*rng)() % 4]);
        break;
      default:
        data.AddRoleAssertion(vocab->FindPredicate("S"), inds[(*rng)() % 4],
                              inds[(*rng)() % 4]);
        break;
    }
  }
  return data;
}

class DifferentialEvaluation : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialEvaluation, EvaluatorMatchesPeUnfolding) {
  std::mt19937_64 rng(1234 + GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    auto rp = MakeRandomProgram(&rng);
    ASSERT_TRUE(rp->program.IsNonrecursive());
    DataInstance data = MakeRandomData(&rp->vocab, &rng);

    Evaluator eval(rp->program, DataSnapshot::FromInstance(data));
    auto bottom_up = eval.Run({}).answers;

    bool truncated = false;
    PeFormula pe = UnfoldToPe(rp->program, 1 << 20, &truncated);
    ASSERT_FALSE(truncated);
    EXPECT_EQ(EvaluatePe(pe, data), bottom_up)
        << "iter " << iter << "\n"
        << rp->program.ToString();

    // The skinny transform must agree too.
    NdlProgram skinny = SkinnyTransform(rp->program);
    Evaluator eval2(skinny, DataSnapshot::FromInstance(data));
    EXPECT_EQ(eval2.Run({}).answers, bottom_up) << "skinny, iter " << iter;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialEvaluation,
                         ::testing::Range(0, 5));

}  // namespace
}  // namespace owlqr
