#include "alu/alu_factory.hpp"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "fault/defect_map.hpp"

namespace nbx {
namespace {

TEST(AluFactory, Table2HasTwelveRowsInPaperOrder) {
  const auto& specs = table2_specs();
  ASSERT_EQ(specs.size(), 12u);
  const std::vector<std::string> expected = {
      "aluncmos", "alunh", "alunn", "aluns", "aluscmos", "alush",
      "alusn",    "aluss", "alutcmos", "aluth", "alutn", "aluts"};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].name, expected[i]);
  }
}

TEST(AluFactory, EveryTable2SiteCountReproducedExactly) {
  // The headline structural claim of this reproduction: our constructions
  // land on the paper's fault-injection-site counts bit for bit.
  for (const AluSpec& spec : table2_specs()) {
    const auto alu = make_alu(spec.name);
    ASSERT_NE(alu, nullptr) << spec.name;
    EXPECT_EQ(alu->fault_sites(), spec.expected_sites) << spec.name;
    EXPECT_EQ(alu->name(), spec.name);
  }
}

TEST(AluFactory, PaperSiteCountsVerbatim) {
  const auto sites = [](std::string_view n) {
    return find_spec(n)->expected_sites;
  };
  EXPECT_EQ(sites("aluncmos"), 192u);
  EXPECT_EQ(sites("alunh"), 672u);
  EXPECT_EQ(sites("alunn"), 512u);
  EXPECT_EQ(sites("aluns"), 1536u);
  EXPECT_EQ(sites("aluscmos"), 657u);
  EXPECT_EQ(sites("alush"), 2205u);
  EXPECT_EQ(sites("alusn"), 1680u);
  EXPECT_EQ(sites("aluss"), 5040u);
  EXPECT_EQ(sites("alutcmos"), 684u);
  EXPECT_EQ(sites("aluth"), 2232u);
  EXPECT_EQ(sites("alutn"), 1707u);
  EXPECT_EQ(sites("aluts"), 5067u);
}

TEST(AluFactory, TimeEqualsSpacePlus27) {
  // The Table 2 identity that decodes the time-redundancy storage model.
  const auto sites = [](std::string_view n) {
    return find_spec(n)->expected_sites;
  };
  EXPECT_EQ(sites("alutcmos"), sites("aluscmos") + 27);
  EXPECT_EQ(sites("aluth"), sites("alush") + 27);
  EXPECT_EQ(sites("alutn"), sites("alusn") + 27);
  EXPECT_EQ(sites("aluts"), sites("aluss") + 27);
}

TEST(AluFactory, NamesComposeFromLevels) {
  EXPECT_EQ(alu_name(BitLevel::kCmos, ModuleLevel::kNone), "aluncmos");
  EXPECT_EQ(alu_name(BitLevel::kTmr, ModuleLevel::kSpace), "aluss");
  EXPECT_EQ(alu_name(BitLevel::kHamming, ModuleLevel::kTime), "aluth");
  EXPECT_EQ(alu_name(BitLevel::kHsiao, ModuleLevel::kNone), "alunhsiao");
}

TEST(AluFactory, UnknownNameReturnsNull) {
  EXPECT_EQ(make_alu("alu9000"), nullptr);
  EXPECT_EQ(make_alu(""), nullptr);
  EXPECT_FALSE(find_spec("bogus").has_value());
}

TEST(AluFactory, ExtensionSpecsPresentAndConsistent) {
  const auto& specs = all_specs();
  EXPECT_EQ(specs.size(), 27u);
  std::set<std::string> names;
  for (const AluSpec& s : specs) {
    names.insert(s.name);
    const auto alu = make_alu(s.name);
    ASSERT_NE(alu, nullptr) << s.name;
    EXPECT_EQ(alu->fault_sites(), s.expected_sites) << s.name;
  }
  EXPECT_EQ(names.size(), 27u);  // all distinct
  EXPECT_TRUE(names.count("alunhsiao"));
  EXPECT_TRUE(names.count("aluthsiao"));
  EXPECT_TRUE(names.count("alushsiao"));
  EXPECT_TRUE(names.count("alunhideal"));
  EXPECT_TRUE(names.count("aluthideal"));
  EXPECT_TRUE(names.count("alushideal"));
  EXPECT_TRUE(names.count("alunsi"));
  EXPECT_TRUE(names.count("alutsi"));
  EXPECT_TRUE(names.count("alussi"));
  EXPECT_TRUE(names.count("alunrs"));
  EXPECT_TRUE(names.count("alutrs"));
  EXPECT_TRUE(names.count("alusrs"));
  EXPECT_TRUE(names.count("alunhw"));
}

TEST(AluFactory, HardwareTmrSiteArithmetic) {
  // 32 LUTs x (48 storage + 76 read-path gates) = 3968 sites.
  EXPECT_EQ(find_spec("alunhw")->expected_sites, 32u * 124u);
}

TEST(AluFactory, ReedSolomonSiteArithmetic) {
  // RS(6,4) over GF(16): 16 data + 8 parity bits per LUT -> 32 x 24 =
  // 768 core sites; voter 9 x 24 = 216.
  EXPECT_EQ(find_spec("alunrs")->expected_sites, 768u);
  EXPECT_EQ(find_spec("alusrs")->expected_sites, 3 * 768u + 216u);
  EXPECT_EQ(find_spec("alutrs")->expected_sites, 3 * 768u + 216u + 27u);
}

TEST(AluFactory, InterleavedTmrSiteArithmeticMatchesBlockedTmr) {
  // The layout ablation stores exactly the same bits as the paper's
  // aluns/aluts/aluss — only the physical placement differs.
  EXPECT_EQ(find_spec("alunsi")->expected_sites,
            find_spec("aluns")->expected_sites);
  EXPECT_EQ(find_spec("alutsi")->expected_sites,
            find_spec("aluts")->expected_sites);
  EXPECT_EQ(find_spec("alussi")->expected_sites,
            find_spec("aluss")->expected_sites);
}

TEST(AluFactory, IdealHammingSiteArithmeticMatchesPaperHamming) {
  // The ideal-decoder variant stores exactly the same bits as the
  // paper's alunh/aluth/alush — only the corrector logic differs.
  EXPECT_EQ(find_spec("alunhideal")->expected_sites,
            find_spec("alunh")->expected_sites);
  EXPECT_EQ(find_spec("aluthideal")->expected_sites,
            find_spec("aluth")->expected_sites);
  EXPECT_EQ(find_spec("alushideal")->expected_sites,
            find_spec("alush")->expected_sites);
}

TEST(AluFactory, HsiaoSiteArithmetic) {
  // Hsiao(22,16): 32 LUTs x 22 = 704; voter 9 x 22 = 198.
  EXPECT_EQ(find_spec("alunhsiao")->expected_sites, 704u);
  EXPECT_EQ(find_spec("alushsiao")->expected_sites, 3 * 704u + 198u);
  EXPECT_EQ(find_spec("aluthsiao")->expected_sites, 3 * 704u + 198u + 27u);
}

TEST(AluFactory, DescriptionsMentionTechniques) {
  EXPECT_NE(find_spec("aluss")->description.find("space redundancy"),
            std::string::npos);
  EXPECT_NE(find_spec("aluth")->description.find("three times"),
            std::string::npos);
  EXPECT_NE(find_spec("aluncmos")->description.find("CMOS"),
            std::string::npos);
}

TEST(SharedAlu, OneImmutableInstancePerCatalogueName) {
  Rng rng(19);
  for (const AluSpec& spec : all_specs()) {
    const IAlu* alu = shared_alu(spec.name);
    ASSERT_NE(alu, nullptr) << spec.name;
    EXPECT_EQ(alu, shared_alu(spec.name));
    EXPECT_EQ(alu->name(), spec.name);
    EXPECT_EQ(alu->fault_sites(), spec.expected_sites);
    // make_alu stays a fresh-instance factory that computes the same.
    const auto fresh = make_alu(spec.name);
    EXPECT_NE(fresh.get(), alu);
    EXPECT_EQ(fresh->golden_storage(), alu->golden_storage());
    BitVec mask(alu->fault_sites());
    for (int n = 0; n < 8; ++n) {
      mask.clear_all();
      for (std::size_t i = 0; i < mask.size(); ++i) {
        mask.set(i, rng.bernoulli(0.02));
      }
      const auto a = static_cast<std::uint8_t>(rng.below(256));
      const auto b = static_cast<std::uint8_t>(rng.below(256));
      const Opcode op = kAllOpcodes[static_cast<std::size_t>(n) % 4];
      const MaskView v(mask, 0, mask.size());
      ModuleStats got;
      ModuleStats want;
      const AluOutput x = alu->compute(op, a, b, v, &got);
      const AluOutput y = fresh->compute(op, a, b, v, &want);
      EXPECT_EQ(x.value, y.value) << spec.name;
      EXPECT_EQ(x.valid, y.valid) << spec.name;
      EXPECT_EQ(got.lut.accesses, want.lut.accesses) << spec.name;
    }
  }
}

TEST(SharedAlu, UnknownNameIsNull) {
  EXPECT_EQ(shared_alu("alu9000"), nullptr);
  EXPECT_EQ(shared_alu(""), nullptr);
}

TEST(SharedAlu, ConcurrentFirstUseBuildsOneInstance) {
  // Cells on several threads ask for the same catalogue ALU at once and
  // impose defects through it, which builds its golden storage.
  std::array<const IAlu*, 4> seen{};
  const auto reference = make_alu("alutsi");
  Rng rng(23);
  const DefectMap map =
      DefectMap::manufacture(reference->defectable_sites(), 0.05, rng);
  BitVec expected(reference->fault_sites());
  reference->impose_defects(map, expected);
  std::vector<BitVec> masks(seen.size(), BitVec(reference->fault_sites()));
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    threads.emplace_back([&seen, &masks, &map, i] {
      seen[i] = shared_alu("alutsi");
      seen[i]->impose_defects(map, masks[i]);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], seen[0]);
    EXPECT_EQ(masks[i], expected);
  }
}

}  // namespace
}  // namespace nbx
