package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// experimentDigests pins the bytes of every registered experiment at
// Small: the first 16 hex digits of the SHA-256 of its text rendering
// and of its markdown rendering. A change here is a change to a
// reproduced table or figure and must be deliberate.
var experimentDigests = map[string][2]string{
	"table1":                   {"733324d53afef265", "cf346b5c6adc406d"},
	"table6":                   {"5c0cb8ce786ba306", "6f6bd10ec0a099d4"},
	"table2":                   {"8f0929a60e802bbf", "ec1fa0220a072079"},
	"table3":                   {"98dfcd0d2a2c2071", "ab9dabebb33415c0"},
	"table4":                   {"73e078adfe24b0cd", "e67014a84fd43d20"},
	"table5":                   {"e38fc279692634e8", "cffda24733f26666"},
	"table7":                   {"f956d1dea5114ee7", "2f5e26b9e7e6b01b"},
	"table8":                   {"a6f88ba95ce260a2", "03c8762469a2f26b"},
	"table9":                   {"84974dcefc8f0989", "b1679dee5ab9bc0b"},
	"table10":                  {"4a6e6a39c96be237", "f42920d821c9140b"},
	"table11":                  {"273d09e8cac9035c", "825bd43c5d5ebc0f"},
	"table12":                  {"c53fde05ba34f59c", "3c2edb4c66d9507a"},
	"table13":                  {"dc68157dc9d19387", "30e005f01c86f39b"},
	"table14":                  {"0bac7d3341cbc650", "d3cd84fc09b280f8"},
	"fig2":                     {"a19d12411d4e475b", "3f76c0dec7f6c489"},
	"fig3":                     {"98c44f79d450efdd", "317fdb29ac55d856"},
	"fig4":                     {"1786a25ba409ac5d", "59bfd476ec0f9491"},
	"fig5":                     {"1d8b707e113bc51a", "cea785c3dab6d48b"},
	"fig6":                     {"eebbe79c67f1d24a", "6ee169bb100bf04c"},
	"fig7":                     {"a43e44afe0e9c52c", "2aa3671cf64f8b3e"},
	"fig8":                     {"01975c2969436a47", "914feaf014a8c363"},
	"fig9":                     {"3b99208047b3e9e9", "4c2448051bdb09b8"},
	"fig10":                    {"9ed662ded52cd3b9", "223e16eaeb8b7725"},
	"fig11":                    {"35f982fed20b8f6e", "2de3392757fbb714"},
	"fig12":                    {"0b38c67e0276a10f", "665ed9d14030aef8"},
	"fig13":                    {"a2acb40d0e5be359", "a968738320e49bc3"},
	"fig14":                    {"55b5bc06802f7b70", "ba9816677e4389b1"},
	"fig15":                    {"5401387fa5412e43", "e4a1eae8de4c361d"},
	"fig16":                    {"85438f141d3edcae", "0dceb61604f4b8f8"},
	"fig17":                    {"33a6685a6d7472ae", "568385ba94738e85"},
	"fig18":                    {"6ad0690943de651e", "5232b90c26e5e0bb"},
	"fig19":                    {"f911d92785e1e994", "a48708030a0284ce"},
	"fig20":                    {"1697190acc991adb", "ff04a9b5e434cf92"},
	"fig21":                    {"d4ea67f327de1cd4", "bc3deb1bfd6348c6"},
	"sec5.1":                   {"a2eaab7b6cc2f87a", "b0f68881dc2521a9"},
	"sec5.4":                   {"62e556bfdd814d3d", "50347b0be3abf9fa"},
	"sec5.5":                   {"bf448f230a9d9a31", "ff04ecdba179bd80"},
	"ablation-steal":           {"7f25a21f488f8ce0", "62e34c6f1f40f11d"},
	"ablation-locality-policy": {"661d575c65b32fb6", "67b4629fca3ee3da"},
	"ablation-sticky":          {"aeb348cbded93403", "317e4629d343963e"},
	"ablation-ordering":        {"0f238a42b3410e69", "d871937c8eeba4eb"},
	"extension-update":         {"347e796aac4089ab", "8bc45ac7c79d4413"},
	"extension-portability":    {"3aea86dbdfca2855", "0f147ab4c3b53099"},
	"ablation-panels":          {"ce95b767256ebb3b", "ffe85a1f2cb649bd"},
	"utilization":              {"e593b30a8eebb711", "50482352278c6670"},
	"fault-sweep":              {"745317b0a1233665", "0005c4c55e5a1a15"},
	"granularity-sweep":        {"37c2937a6ecbf33e", "152333356e5db507"},
	"pgas-compare":             {"f5607b8b5f46d246", "e2366b88f62fc41e"},
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:16]
}

func TestExperimentDigests(t *testing.T) {
	ids := IDs()
	if len(experimentDigests) != len(ids) {
		t.Errorf("digest table has %d entries, registry has %d experiments", len(experimentDigests), len(ids))
	}
	for _, id := range ids {
		res, err := Run(id, Small)
		if err != nil {
			t.Fatal(err)
		}
		var text, md strings.Builder
		res.Render(&text)
		res.Markdown(&md)
		got := [2]string{digest(text.String()), digest(md.String())}
		if want, ok := experimentDigests[id]; !ok || got != want {
			t.Errorf("%q: {%q, %q}, want %v", id, got[0], got[1], want)
		}
	}
}
