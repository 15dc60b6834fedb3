// Fixture: comparator sorts and selections in output-scope code must
// fire det-sort-ties (the test lints this with `output-scope on`).
#include <algorithm>
#include <vector>

struct Leaf {
  double cost;
  int index;
};

bool by_cost(const Leaf& a, const Leaf& b) { return a.cost < b.cost; }

void rank(std::vector<Leaf>& leaves) {
  std::sort(leaves.begin(), leaves.end(),  // line 14: det-sort-ties
            [](const Leaf& a, const Leaf& b) { return a.cost < b.cost; });
  std::nth_element(leaves.begin(), leaves.begin() + 1,  // line 16
                   leaves.end(), by_cost);
  std::partial_sort(leaves.begin(), leaves.begin() + 1, leaves.end(),
                    by_cost);  // the call on line 18
}
