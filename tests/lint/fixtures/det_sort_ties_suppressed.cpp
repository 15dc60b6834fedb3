// Fixture: reasoned suppressions silence det-sort-ties.
#include <algorithm>
#include <vector>

struct Leaf {
  double cost;
  int index;
};

void rank(std::vector<Leaf>& leaves) {
  // s3lint: allow(det-sort-ties): total order: (cost, index)
  std::sort(leaves.begin(), leaves.end(), [](const Leaf& a, const Leaf& b) {
    return a.cost != b.cost ? a.cost < b.cost : a.index < b.index;
  });
  std::nth_element(  // s3lint: allow(det-sort-ties): only the cost is read
      leaves.begin(), leaves.begin() + 1, leaves.end(),
      [](const Leaf& a, const Leaf& b) { return a.cost < b.cost; });
}
