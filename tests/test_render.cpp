// Tests of the Gantt / SVG / JSON renderers.

#include <gtest/gtest.h>

#include "mst/core/chain_scheduler.hpp"
#include "mst/core/spider_scheduler.hpp"
#include "mst/schedule/gantt.hpp"
#include "mst/schedule/json.hpp"
#include "mst/schedule/svg.hpp"

namespace mst {
namespace {

Chain fig2_chain() { return Chain::from_vectors({2, 3}, {3, 5}); }

TEST(Gantt, RendersFig2Exactly) {
  const ChainSchedule s = ChainScheduler::schedule(fig2_chain(), 5);
  const std::string expected =
      "link 0 |00112233.44...|\n"
      "link 1 |......222.....|\n"
      "proc 0 |..000111333444|\n"
      "proc 1 |.........22222|\n";
  EXPECT_EQ(render_gantt(s), expected);
}

TEST(Gantt, TimeScaleCompressesColumns) {
  const ChainSchedule s = ChainScheduler::schedule(fig2_chain(), 5);
  const std::string compressed = render_gantt(s, 2);
  // 14 time units at scale 2 -> 7 cells between the pipes.
  const auto first_line = compressed.substr(0, compressed.find('\n'));
  const auto open = first_line.find('|');
  const auto close = first_line.rfind('|');
  EXPECT_EQ(close - open - 1, 7u);
  EXPECT_THROW(render_gantt(s, 0), std::invalid_argument);
}

TEST(Gantt, SpiderRenderingHasMasterRow) {
  const Spider spider{fig2_chain(), Chain::from_vectors({4}, {2})};
  const SpiderSchedule s = SpiderScheduler::schedule(spider, 4);
  const std::string out = render_gantt(s);
  EXPECT_NE(out.find("master port"), std::string::npos);
  EXPECT_NE(out.find("leg 0 link 0"), std::string::npos);
  EXPECT_NE(out.find("leg 1 proc 0"), std::string::npos);
}

TEST(Svg, ChainContainsOneRectPerBusyInterval) {
  const ChainSchedule s = ChainScheduler::schedule(fig2_chain(), 5);
  const std::string svg = render_svg(s);
  // Fig 2: 5 executions + 6 communications (5 on link 0, 1 on link 1),
  // plus one background rect.
  std::size_t rects = 0;
  for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1)) {
    ++rects;
  }
  EXPECT_EQ(rects, 1u + 5u + 6u);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(Svg, SpiderRendersWithoutLabelsWhenDisabled) {
  const Spider spider{fig2_chain(), Chain::from_vectors({4}, {2})};
  const SpiderSchedule s = SpiderScheduler::schedule(spider, 3);
  SvgOptions opt;
  opt.show_labels = false;
  const std::string svg = render_svg(s, opt);
  EXPECT_NE(svg.find("master port"), std::string::npos);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
}

TEST(Json, PlatformsSerialize) {
  EXPECT_EQ(to_json(Chain::from_vectors({2}, {3})),
            "{\"kind\":\"chain\",\"procs\":[{\"comm\":2,\"work\":3}]}");
  EXPECT_EQ(to_json(Fork({Processor{1, 2}})),
            "{\"kind\":\"fork\",\"slaves\":[{\"comm\":1,\"work\":2}]}");
  const Spider spider{Chain::from_vectors({2}, {3}), Chain::from_vectors({4}, {5})};
  EXPECT_EQ(to_json(spider),
            "{\"kind\":\"spider\",\"legs\":[[{\"comm\":2,\"work\":3}],"
            "[{\"comm\":4,\"work\":5}]]}");
}

TEST(Json, ChainScheduleEmbedsTasks) {
  ChainSchedule s{Chain::from_vectors({2}, {3}), {ChainTask{0, 2, {0}}}};
  EXPECT_EQ(to_json(s),
            "{\"platform\":{\"kind\":\"chain\",\"procs\":[{\"comm\":2,\"work\":3}]},"
            "\"makespan\":5,\"tasks\":[{\"proc\":0,\"start\":2,\"emissions\":[0]}]}");
}

TEST(Json, SpiderScheduleEmbedsTasks) {
  const Spider spider{Chain::from_vectors({2}, {3})};
  SpiderSchedule s{spider, {SpiderTask{0, 0, 2, {0}}}};
  const std::string json = to_json(s);
  EXPECT_NE(json.find("\"leg\":0"), std::string::npos);
  EXPECT_NE(json.find("\"makespan\":5"), std::string::npos);
}

}  // namespace
}  // namespace mst
