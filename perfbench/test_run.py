"""Self-tests of run.py's result format. Run from the checkout root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


class ResultFormat(unittest.TestCase):
    def spec(self):
        return run.load_spec()

    def test_round_trip_through_json(self):
        units = {m["name"]: m["unit"] for m in self.spec()["end_to_end"]}
        values = {name: 1.25 + i for i, name in enumerate(units)}
        result = run.result_line(True, 1000, 0, values, units)
        line = json.dumps(result)
        back = json.loads(line)
        self.assertEqual(back, result)
        self.assertEqual(sorted(back), ["attempted", "correct", "failed", "metrics"])
        for name, unit in units.items():
            self.assertEqual(back["metrics"][name], {"value": values[name], "unit": unit})

    def test_missing_or_extra_metric_is_refused(self):
        units = {m["name"]: m["unit"] for m in self.spec()["per_layer"]}
        values = dict.fromkeys(units, 1.0)
        run.result_line(True, 1, 0, values, units)
        short = dict(values)
        short.popitem()
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, short, units)
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, dict(values, unknown=2.0), units)

    def test_spec_names_are_unique_and_setup_is_gated(self):
        spec = self.spec()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_overhead_ratio_compares_cost(self):
        closed = lambda rate: {"detail": {"loop": "closed"}, "metrics": {"items_per_s": rate}}
        self.assertAlmostEqual(run.overhead_ratio(closed(200.0), closed(100.0)), 2.0)
        opened = lambda p50: {"detail": {"loop": "open"}, "metrics": {"p50_us": p50}}
        self.assertAlmostEqual(run.overhead_ratio(opened(10.0), opened(15.0)), 1.5)


    def test_tails_come_from_the_plain_half(self):
        plain = {"detail": {"loop": "closed"},
                 "metrics": {"items_per_s": 200.0, "e2e.p90_us": 1.0, "spins": 9.0}}
        traced = {"detail": {"loop": "closed"},
                  "metrics": {"items_per_s": 100.0, "e2e.p90_us": 5.0, "spins": 3.0}}
        values = run.per_layer_values(plain, traced)
        self.assertEqual(values["e2e.p90_us"], 1.0)
        self.assertEqual(values["spins"], 3.0)
        self.assertAlmostEqual(values["trace.overhead_ratio"], 2.0)

if __name__ == "__main__":
    unittest.main()
